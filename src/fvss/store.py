"""Simulated CSP stores, the trusted index server, and the warehouse facade.

Each CSP keeps its slice of every shared table as columns, each fact
once: the primary keys in position order (positions feed its signature
tree) with a pk -> position map, per fk column a pk -> value map, and per
data attribute a share column (pk -> this CSP's share, non-NULL values
only, so a share sum is one C-level pass over a flat dict) beside the set
of pks whose value is NULL. A share of a number (int, real, date, bool,
every cube measure) is one int; a share of a string is a tuple of one
chunk per UTF-8 byte. Writes and reads cross the store's
interface as batches, column-wise (a pk list and one value column per
field); StoredRecord is only the one-record view of the same values. A
CSP also keeps an alive/failed flag for experiments and a monotone count
of the bytes its reads send back. The index server keeps the Type I
location bitmaps with, per provider, the set of primary keys it does not
store, the Type II plaintext indices as one primary key -> order key map
per indexed attribute, which a predicate scans once, and the Type III
derived-column registry; by design it is a trusted node, so order keys
are stored in the clear there. The sets and maps live in memory only:
they are maintained on every write and rebuilt on load, so filtered
aggregates cost time in the size of the filter, not of the table. The
warehouse's schemas, in creation order, are its one table registry.
Every record, base row or cube cell, is stored by one write,
`Warehouse.write`, of records that are all stored or all new: stored ones
by one `CspStore.update_columns` call per provider (one signature-tree
pass that touches each node once), new ones by one `append_columns` call
per provider and one Type I batch; then one Type II batch per indexed
attribute, of the order keys the caller gives. `load_rows` keeps only
what routing needs as each row arrives (a copy of it, its key, the
failed-provider checks) and encodes each APPEND_ROWS of held rows a
column at a time (_derived_keys in integers, then sharing.encode_rows
for the share chunks and the order keys), places the new records of the
batch in one draw (sharing.storage_bitmaps), shares them as
A_i*c + B_i*pk from the chunks (sharing.share_columns) and writes the
stored and the new ones. A field of many
records is read by one gather, `Warehouse._gather` (an fk from the index
server, a data attribute from the donors' columns), for reconstruction
and recovery alike. Every read picks its providers through
`Warehouse.read_through`.

On disk (all integers decimal text):
    <root>/csp<i>/<table>.shares     tab-separated records, share lists
                                     comma-joined, NULL literal for nulls
    <root>/csp<i>/<table>.sigtree    record-layer (level, index, value)
    <root>/csp<i>/_tables.sigtree    table order plus table-layer triples
    <root>/csp<i>/state              alive flag and bytes_transferred
    <root>/index/type1.bitmap        table, pk, bitmap lines
    <root>/index/type2/<t>.<a>.idx   one JSON [key, pk] entry per line

Type II order keys are sharing.typed_key, the integer (or string) that
also makes a value's share chunks, and a write takes them from the same
encoding as the chunks. A write encodes each record once, as its
signature input (_record_bytes); only save formats .shares text.
The codecs are column-wise: save formats each file from whole columns,
and load splits each file once and converts each field as a strided
slice. load reads every file, but parses a provider's signature trees
only on first use (CspStore.sigtree): verify, recover, writes and save
parse them, and a query never does. The Type II files must be exactly
those of the configured indexes; save writes one for each, even empty.
"""

from __future__ import annotations

import json
import re
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, repeat, zip_longest
from operator import eq, ge, gt, le, lt, ne
from pathlib import Path
from typing import NamedTuple

from .errors import (
    CspUnavailable,
    DuplicateTable,
    EmptyInput,
    InnerSignatureMismatch,
    MissingShare,
    NotEnoughAliveCsps,
    NotIndexed,
    OutOfRange,
    SchemaMismatch,
    UnknownParticipant,
    UnknownRecordPosition,
    UnknownTable,
)
from .keyed import KeyMaterial
from .sharing import (
    DEFAULT_BIAS,
    NUMBER_KINDS,
    PLAIN_KINDS,
    RECONSTRUCTIONS,
    Column,
    Schema,
    decode,
    encode_rows,
    group_from_bitmap,
    linear_rows,
    positions,
    round_half_even,
    share_columns,
    solve_column,
    storage_bitmaps,
    storage_group_size,
    whole_number,
)
from .sigtree import BreachEntry, BreachReport, SignatureTree, WaryTree

NULL_LITERAL = "NULL"
_NULL_BYTES = b"\xff"   # a NULL field in a record's signature input
# new rows Warehouse.load_rows holds before handing them to the providers:
# the bound keeps memory flat on big loads, and loading 5,000 rows as one
# batch made later set-heavy reads in the same process about 4% slower
APPEND_ROWS = 500


class StoredRecord:
    """One CSP's copy of one record as it crosses the store's interface:
    built from the columns on read, unpacked into them on write; compared
    by value."""

    def __init__(self, pk: int, plain: dict[str, int],
                 shares: dict[str, int | tuple[int, ...] | None]):
        self.pk = pk
        self.plain = plain     # fk columns
        self.shares = shares   # this CSP's shares, None = null

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.pk, self.plain, self.shares) == (other.pk, other.plain, other.shares)

    def __repr__(self) -> str:
        return f"StoredRecord(pk={self.pk!r}, plain={self.plain!r}, shares={self.shares!r})"


# A batch of records travels column-wise: their pks, and per non-key field
# of the schema, in record_fields order, their values aligned with the pks
# (an int for an fk; for a data attribute this CSP's share, an int for a
# number or a chunk tuple for a string, or None for NULL).


def _unpack(schema: Schema, recs) -> list[list]:
    """The field values of recs, one list per non-key field."""
    return [
        [r.plain[name] for r in recs] if is_fk else [r.shares.get(name) for r in recs]
        for name, is_fk in schema.record_fields()
    ]


@lru_cache(maxsize=64)
def _packer(count: int):
    """struct's pack of count 8-byte big-endian unsigned integers."""
    return struct.Struct(f">{count}Q").pack


def _field_bytes(value) -> bytes:
    """One field of a signature input: 8 bytes big-endian per integer, a
    single 0xFF for null."""
    if value is None:
        return _NULL_BYTES
    if type(value) is tuple:
        return b"".join([c.to_bytes(8, "big") for c in value])
    return value.to_bytes(8, "big")


def _record_bytes(schema: Schema, pks, values) -> list[bytes]:
    """Signature input of each record: pk, then every non-key field in
    schema order, 8-byte big-endian per integer, a single 0xFF for null.
    A record of integers only is one _packer call; a record that holds a
    NULL or a string is encoded a field at a time, as is every record of
    a batch with an integer outside 8 unsigned bytes (its to_bytes
    raises)."""
    out, odd = [b""] * len(pks), range(len(pks))
    if not schema.strings():
        columns, nulls = [], set()
        for vals in values:
            marks = positions(vals, None) if None in vals else None
            if marks:
                nulls.update(marks)
                vals = list(vals)
                for k in marks:
                    vals[k] = 0
            columns.append(vals)
        try:
            out, odd = list(map(_packer(len(values) + 1), pks, *columns)), nulls
        except struct.error:
            pass
    for k in odd:
        out[k] = pks[k].to_bytes(8, "big") + b"".join([_field_bytes(vals[k]) for vals in values])
    return out


# The text codecs work a column at a time: a writer formats whole columns
# through one format string, a parser splits a whole file once and reads
# each field as a strided slice, so Python code runs per file and column,
# not per line (per value only for NULLs and shares of several chunks).


def _fields(lines: list[str], width: int) -> list[str]:
    """The tab-separated fields of lines, all lines after each other; for
    a line of another width, the ValueError of unpacking it into width
    names."""
    counts = list(map(str.count, lines, repeat("\t")))
    if set(counts) - {width - 1}:
        got = next(n for n in counts if n != width - 1) + 1
        raise ValueError(f"not enough values to unpack (expected {width}, got {got})"
                         if got < width else f"too many values to unpack (expected {width})")
    return "\t".join(lines).split("\t") if lines else []


def _share_texts(vals: list, string: bool):
    """A share column as values whose format() is its .shares field: a
    number's share itself, a string's chunks comma-joined, the NULL
    literal for a null."""
    if string:
        return [NULL_LITERAL if v is None else ",".join(map(str, v)) for v in vals]
    if None in vals:
        vals = list(vals)
        for k in positions(vals, None):
            vals[k] = NULL_LITERAL
    return vals


def _parse_share_texts(raw: list[str], string: bool) -> list:
    """Inverse of _share_texts: ints, chunk tuples for a string column,
    None for a null."""
    if string:
        return [None if r == NULL_LITERAL else tuple(map(int, r.split(","))) for r in raw]
    nulls = positions(raw, NULL_LITERAL)
    for k in nulls:
        raw[k] = "0"
    vals = list(map(int, raw))
    for k in nulls:
        vals[k] = None
    return vals


def _shares_text(schema: Schema, pks, values) -> str:
    """A table slice as the .shares lines save writes: tab-separated
    decimal fields, a string's chunks comma-joined, the NULL literal for
    nulls."""
    columns = schema.columns[1:]
    line = "\t".join(["{}"] * (len(columns) + 1)) + "\n"
    cols = [vals if col.kind == "fk" else _share_texts(vals, col.kind == "string")
            for col, vals in zip(columns, values)]
    return "".join(map(line.format, pks, *cols))


def _parse_shares(schema: Schema, text: str) -> tuple[list[int], list[list]]:
    """Inverse of _shares_text: (pks, values) of a .shares file, whose
    empty lines are skipped; SchemaMismatch for a line of another width or
    a field that is not a decimal integer (or NULL where a share may be)."""
    width = len(schema.columns)
    try:
        flat = _fields(list(filter(None, text.splitlines())), width)
    except ValueError:
        raise SchemaMismatch(f"{schema.table}.shares: a line without {width} fields") from None
    try:
        return list(map(int, flat[0::width])), [
            list(map(int, flat[j::width])) if col.kind == "fk"
            else _parse_share_texts(flat[j::width], col.kind == "string")
            for j, col in enumerate(schema.columns[1:], 1)
        ]
    except ValueError:
        raise SchemaMismatch(f"{schema.table}.shares: a field that is not a decimal integer") from None


def _chunk_count(col: Column, vals: list) -> int:
    """The share chunks in a column of col's values: one per number, one
    per byte of a string, none for a NULL."""
    if col.kind == "string":
        return sum([len(chunks) for chunks in vals if chunks is not None])
    return len(vals) - vals.count(None)


def _refuse_empty_strings(schema: Schema, rows):
    """An empty string encodes to no chunks, which a provider cannot store
    apart from NULL; refuse the rows before anything is written, a string
    column at a time."""
    for name in schema.strings():
        if "" in [row.get(name) for row in rows]:
            raise OutOfRange(f"{schema.table}.{name}: an empty string cannot be shared")


def _walks(keys, groups) -> list:
    """Per group of pks, an iterator over its pks that keys (a set or a
    dict) holds: the group walked in its own order, one probe of keys per
    pk. A group that is itself a set or a dict and larger than keys (a
    whole table, which query hands over as Type I's own pk -> bitmap map)
    is probed instead, keys walked in their order. No pk is copied."""
    if not keys:
        return [()] * len(groups)
    probe, size = keys.__contains__, len(keys)
    return [filter(pks.__contains__, keys)
            if len(pks) > size and isinstance(pks, (dict, set, frozenset))
            else filter(probe, pks) for pks in groups]


class CspStore:
    """One provider: table slices as columns, its signature tree, failure
    state."""

    def __init__(self, index: int, w: int, km: KeyMaterial):
        self.index = index
        self.km = km
        self.alive = True
        self.pks: dict[str, list[int]] = {}                # table -> pks by position
        self.positions: dict[str, dict[int, int]] = {}     # table -> pk -> position
        self.plain: dict[str, dict[str, dict[int, int]]] = {}   # table -> fk -> pk -> value
        # table -> attr -> pk -> share (an int, a chunk tuple for a string), non-NULL values
        self.columns: dict[str, dict[str, dict[int, int | tuple[int, ...]]]] = {}
        self.nulls: dict[str, dict[str, set[int]]] = {}    # table -> attr -> NULL pks
        self.strings: dict[str, frozenset[str]] = {}       # table -> its string attributes
        self._sigtree = SignatureTree(index, w, km)
        # saved trees not parsed yet: (_tables.sigtree text, table -> .sigtree text)
        self.saved_trees: tuple[str, dict[str, str]] | None = None
        self.bytes_transferred = 0

    @property
    def sigtree(self) -> SignatureTree:
        """This provider's signature trees. Trees read from disk by
        Warehouse.load are parsed here, on first use, so a command that
        neither checks nor changes them never builds one; a malformed
        file raises its ValueError at every use until then."""
        if self.saved_trees is not None:
            self._sigtree = _parse_sigtree(self.index, self._sigtree.w, self.km,
                                           *self.saved_trees)
            self.saved_trees = None
        return self._sigtree

    def _check_alive(self):
        if not self.alive:
            raise CspUnavailable(f"CSP {self.index} is failed")

    def create_table(self, schema: Schema):
        if schema.table in self.pks:
            raise DuplicateTable(schema.table)
        self._set_slice(schema, [], [[] for _ in schema.record_fields()])
        self.sigtree.create_table(schema.table)

    @property
    def tables(self) -> dict[str, list[StoredRecord]]:
        """table -> records in position order, built from the columns on
        every access: a read-only view, editing it changes nothing stored."""
        return {table: [self._record(table, pk) for pk in pks] for table, pks in self.pks.items()}

    def _record(self, table: str, pk: int) -> StoredRecord:
        return StoredRecord(
            pk,
            {name: column[pk] for name, column in self.plain[table].items()},
            {name: column.get(pk) for name, column in self.columns[table].items()},
        )

    def _pks(self, table: str) -> list[int]:
        try:
            return self.pks[table]
        except KeyError:
            raise UnknownTable(table) from None

    def _pk_at(self, table: str, pos: int) -> int:
        pks = self._pks(table)
        if not 0 <= pos < len(pks):
            raise UnknownRecordPosition(f"{table}[{pos}] at CSP {self.index}")
        return pks[pos]

    def slice_values(self, schema: Schema) -> tuple[list[int], list[list]]:
        """The table slice as (pks by position, field values), read from
        the columns."""
        pks = self._pks(schema.table)
        return pks, self._values(schema, pks)

    def _values(self, schema: Schema, pks) -> list[list]:
        """The field values of the records keyed pks, one column per field."""
        plain, columns = self.plain[schema.table], self.columns[schema.table]
        return [
            list(map(plain[name].__getitem__, pks)) if is_fk
            else list(map(columns[name].get, pks))
            for name, is_fk in schema.record_fields()
        ]

    def _set_slice(self, schema: Schema, pks: list[int], values: list[list]):
        """Install a table slice: its pk list, positions and columns."""
        table = schema.table
        self.pks[table] = pks
        self.positions[table] = dict(zip(pks, range(len(pks))))
        fields = schema.record_fields()
        self.plain[table] = {name: {} for name, is_fk in fields if is_fk}
        self.columns[table] = {name: {} for name, is_fk in fields if not is_fk}
        self.nulls[table] = {name: set() for name in self.columns[table]}
        self.strings[table] = frozenset(schema.strings())
        self._write(schema, pks, values)

    def _write(self, schema: Schema, pks, values):
        """File each value under its pk (pks distinct): an fk in its
        column, a share in its share column or, when NULL, in the
        attribute's NULL set, and out of the other one."""
        table = schema.table
        plain, columns, nulls = self.plain[table], self.columns[table], self.nulls[table]
        for (name, is_fk), vals in zip(schema.record_fields(), values):
            if is_fk:
                plain[name].update(zip(pks, vals))
                continue
            column, null = columns[name], nulls[name]
            if None in vals:
                gone = [pk for pk, chunks in zip(pks, vals) if chunks is None]
                null.update(gone)
                for pk in gone:
                    column.pop(pk, None)
                column.update([pair for pair in zip(pks, vals) if pair[1] is not None])
            else:
                column.update(zip(pks, vals))
            if null:
                null.difference_update(column.keys() & pks)

    def append_columns(self, schema: Schema, pks, values) -> int:
        """Append new records in order, given as a batch (pks and value
        columns): pks, positions and columns, and one signature-tree
        extension. Returns the position of the first."""
        self._check_alive()
        table = schema.table
        held = self._pks(table)
        start = len(held)
        held.extend(pks)
        self.positions[table].update(zip(pks, range(start, len(held))))
        self._write(schema, pks, values)
        self.sigtree.insert_records(table, _record_bytes(schema, pks, values))
        return start

    def update_columns(self, schema: Schema, pks, values):
        """Overwrite the stored records keyed pks (distinct) with a batch
        of values: one write of the columns, one signature-tree pass that
        touches each node once. Nothing changes when a pk is not stored
        here."""
        self._check_alive()
        table = schema.table
        self._require_held(table, pks)
        positions = list(map(self.positions[table].__getitem__, pks))
        self._write(schema, pks, values)
        self.sigtree.update_records(table, positions, _record_bytes(schema, pks, values))

    def fetch_records(self, schema: Schema, pks) -> list[list]:
        """The stored values of the records keyed pks, as value columns: 64 bytes a record."""
        self._check_alive()
        table = schema.table
        self._require_held(table, pks)
        self.bytes_transferred += 64 * len(pks)
        return self._values(schema, pks)

    def put_shared_records(self, schema: Schema, recs) -> int:
        """append_columns of records."""
        return self.append_columns(schema, [r.pk for r in recs], _unpack(schema, recs))

    def put_shared_record(self, schema: Schema, rec: StoredRecord) -> int:
        return self.put_shared_records(schema, [rec])

    def update_shared_record(self, schema: Schema, pos: int, rec: StoredRecord):
        """Overwrite the record at pos with rec's values."""
        self._check_alive()
        self.update_columns(schema, [self._pk_at(schema.table, pos)], _unpack(schema, [rec]))

    def position_of(self, table: str, pk: int) -> int:
        pos = self.positions.get(table, {}).get(pk)
        if pos is None:
            raise UnknownRecordPosition(f"pk {pk} not stored at CSP {self.index}")
        return pos

    def fetch_share(self, table: str, pk: int, attr: str) -> int | tuple[int, ...] | None:
        self._check_alive()
        self.position_of(table, pk)
        share = self.columns[table].get(attr, {}).get(pk)
        self.bytes_transferred += 8 * (len(share) if type(share) is tuple else 1)
        return share

    def _require_held(self, table: str, pks):
        positions = self.positions.get(table, {})
        if not all(map(positions.__contains__, pks)):
            self.position_of(table, next(pk for pk in pks if pk not in positions))

    def fetch_shares(self, table: str, attr: str, pks) -> list:
        """fetch_share of every pk in the sequence pks, in order, as one
        read of the column: an int per number, a chunk tuple per string,
        None per NULL. One alive check, UnknownRecordPosition for a pk not
        stored here, and the bytes those calls would count: 8 per number
        or NULL, 8 per chunk of a string."""
        self._check_alive()
        self._require_held(table, pks)
        out = list(map(self.columns.get(table, {}).get(attr, {}).get, pks))
        count = len(out)
        if attr in self.strings.get(table, ()):
            count += sum([len(chunks) - 1 for chunks in out if chunks is not None])
        self.bytes_transferred += 8 * count
        return out

    def null_pks(self, table: str, attr: str, pks) -> set[int]:
        """Primary keys among pks (distinct) stored here whose attr is
        null, found by one walk of pks in its order (_walks): 8 bytes per
        key."""
        self._check_alive()
        out = set(_walks(self.nulls.get(table, {}).get(attr, ()), [pks])[0])
        self.bytes_transferred += len(out) * 8
        return out

    def share_sums(self, table: str, attr: str, groups) -> list[int]:
        """Per group of distinct pks, the sum mod p of this CSP's shares of
        the numeric attr over the pks of the group it stores with a
        non-NULL attr, read from the share column by one walk of the group
        in the order given (_walks): one request, 8 bytes per sum. query
        gives each group in ascending pk order, and pks hash to
        themselves, so the walk probes the column's slots in order."""
        self._check_alive()
        column = self.columns.get(table, {}).get(attr, {})
        share, p = column.__getitem__, self.km.p
        self.bytes_transferred += 8 * len(groups)
        return [sum(map(share, held)) % p for held in _walks(column, groups)]

    def share_sum(self, table: str, attr: str, pks) -> int:
        """share_sums of one group."""
        return self.share_sums(table, attr, [pks])[0]

    def tamper(self, table: str, pos: int, attr: str, chunk: int, delta: int):
        """Add delta to one stored share chunk without touching the
        signature tree: chunk 0 is a number's share. OutOfRange for a
        chunk the share does not have."""
        pk = self._pk_at(table, pos)
        column = self.columns[table].get(attr, {})
        share = column.get(pk)
        if share is None:
            raise UnknownRecordPosition(f"{table}[{pos}].{attr} is null")
        string = type(share) is tuple
        mutated = list(share) if string else [share]
        if not 0 <= chunk < len(mutated):
            raise OutOfRange(f"{table}[{pos}].{attr} has no chunk {chunk}:"
                             f" its share has {len(mutated)}")
        mutated[chunk] = (mutated[chunk] + delta) % self.km.p
        column[pk] = tuple(mutated) if string else mutated[0]

    def reset_table(self, schema: Schema, pks: list[int], values: list[list]):
        """Replace a table slice wholesale (recovery path); rebuilds the
        record tree and patches the table layer by delta."""
        table = schema.table
        self._set_slice(schema, pks, values)
        tree = self.sigtree
        old_root = tree.record_trees[table].root
        leaves = self.km.hf_stars(self.index, _record_bytes(schema, pks, values))
        tree.record_trees[table] = WaryTree.from_leaves(tree.w, tree.p, leaves)
        new_root = tree.record_trees[table].root
        tree.table_layer.add_delta(tree.table_pos[table], new_root - old_root)


class TypeOneIndex:
    """(table, pk) -> location bitmap, in insertion order per table, plus
    per table and CSP i the set of pks whose bitmap has 0 at position i."""

    def __init__(self):
        self.entries: dict[str, dict[int, str]] = {}
        self.absent: dict[str, dict[int, set[int]]] = {}

    def create_table(self, table: str):
        self.entries.setdefault(table, {})
        self.absent.setdefault(table, {})

    def set_many(self, table: str, pks: list[int], bitmaps: list[str]):
        """File each (pk, bitmap) pair in order, a bitmap at a time in
        C-level passes; the pks are distinct and new to the table."""
        entries = self.entries.setdefault(table, {})
        absent = self.absent.setdefault(table, {})
        entries.update(zip(pks, bitmaps))
        for bitmap in dict.fromkeys(bitmaps):
            zeros = [i for i, bit in enumerate(bitmap, 1) if bit == "0"]
            if zeros:
                held = list(compress(pks, map(bitmap.__eq__, bitmaps)))
                for i in zeros:
                    absent.setdefault(i, set()).update(held)

    def bitmap(self, table: str, pk: int) -> str:
        try:
            return self.entries[table][pk]
        except KeyError:
            raise UnknownRecordPosition(f"no bitmap for {table} pk {pk}") from None

    def has(self, table: str, pk: int) -> bool:
        return pk in self.entries.get(table, {})

    def pks(self, table: str) -> list[int]:
        if table not in self.entries:
            raise UnknownTable(table)
        return list(self.entries[table])

    def pseudo_sums(self, table: str, groups, i: int, p: int) -> list[int]:
        """Per group of distinct pks, the sum mod p of its pks whose shares
        are NOT stored at CSP i, from one walk of the group in the order
        given (_walks; query gives ascending pk order); this is the
        quantity fed to HE2 in share-space aggregation."""
        absent = self.absent.get(table, {}).get(i, ())
        return [sum(held) % p for held in _walks(absent, groups)]

    def pseudo_sum(self, table: str, pks, i: int, p: int) -> int:
        """pseudo_sums of one group."""
        return self.pseudo_sums(table, [pks], i, p)[0]


class TypeTwoIndex:
    """Plaintext ordered indices at the index server.

    Per indexed attribute, one maintained pk -> order key map is the whole
    index: it answers point reads, grouping, filtered aggregates and, by
    one scan, predicates; a write sets or drops its keys and nothing
    else. Order keys are canonical integers (scaled reals, epoch
    days, 0/1 booleans) or raw strings; nulls are simply absent.
    """

    def __init__(self):
        self.keys: dict[tuple[str, str], dict[int, object]] = {}

    def register(self, table: str, attr: str):
        self.keys.setdefault((table, attr), {})

    def is_indexed(self, table: str, attr: str) -> bool:
        return (table, attr) in self.keys

    def _index(self, table: str, attr: str) -> dict[int, object]:
        try:
            return self.keys[(table, attr)]
        except KeyError:
            raise NotIndexed(f"{table}.{attr} has no Type II index") from None

    def value_map(self, table: str, attr: str) -> dict[int, object]:
        """pk -> order key of every indexed record. This is the maintained
        map itself: callers must not modify it."""
        return self._index(table, attr)

    def entries(self, table: str, attr: str) -> list[tuple]:
        """The (key, pk) entries of the index in sorted order, sorted from
        the map on each call."""
        keys = self._index(table, attr)
        return sorted(zip(keys.values(), keys))

    def insert(self, table: str, attr: str, key, pk: int):
        """Index pk under key, replacing the key it had."""
        self.insert_many(table, attr, [(key, pk)])

    def remove(self, table: str, attr: str, pk: int):
        """Drop pk from the index; a pk that is not there is ignored."""
        self.insert_many(table, attr, [(None, pk)])

    def insert_many(self, table: str, attr: str, pairs):
        """Index each (key, pk) of pairs, whose pks are distinct, under its
        key, or drop it for a None key."""
        keys = self._index(table, attr)
        for key, pk in pairs:
            if key is None:
                keys.pop(pk, None)
            else:
                keys[pk] = key

    def lookup(self, table: str, attr: str, op: str, operand) -> set[int]:
        """Primary keys whose order key k satisfies `k op operand`, from one
        pass over the index's map: `between` takes (lo, hi) and keeps
        lo <= k <= hi, `=` keeps k == operand, `in` takes an iterable of
        operands, and any other operator compares through its `operator`
        function."""
        keys = self._index(table, attr)
        if op == "between":
            lo, hi = operand
            return {pk for pk, key in keys.items() if lo <= key <= hi}
        if op == "=":
            return {pk for pk, key in keys.items() if key == operand}
        if op == "in":
            hit = map(frozenset(operand).__contains__, keys.values())
        elif op in _COMPARISONS:
            hit = map(_COMPARISONS[op], keys.values(), repeat(operand))
        else:
            raise NotIndexed(f"unsupported predicate {op!r}")
        return set(compress(keys, hit))

    def aggregates(self, table: str, attr: str, fn: str, groups) -> list:
        """Per group of distinct pks, from one walk of the group over the
        pk -> key map (_walks): COUNT the cardinality (non-null by
        construction), MAX/MIN/MEDIAN the pk of the extremal or median
        record, None for a group with no indexed record. Only the groups'
        records are visited."""
        keys = self._index(table, attr)
        pick = _PICKS.get(fn)
        if pick is None and fn != "count":
            raise EmptyInput(f"unknown index aggregate {fn!r}")
        out = []
        for held in _walks(keys, groups):
            hits = list(held)
            if pick is None:
                out.append(len(hits))
            else:
                out.append(pick(list(zip(map(keys.__getitem__, hits), hits)))[1] if hits else None)
        return out

    def aggregate(self, table: str, attr: str, fn: str, pks) -> int:
        """aggregates of one group; EmptyInput for MAX/MIN/MEDIAN when it
        has no indexed record."""
        got = self.aggregates(table, attr, fn, [pks])[0]
        if got is None:
            raise EmptyInput(f"{fn} over empty {table}.{attr} filter")
        return got


def _lower_median(ranked: list[tuple]):
    # lower middle of the (value, pk) order keeps it deterministic
    ranked.sort()
    return ranked[(len(ranked) - 1) // 2]


_PICKS = {"max": max, "min": min, "median": _lower_median}
_COMPARISONS = {"=": eq, "!=": ne, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


class DerivedColumn(NamedTuple):
    """Type III registration: an extra shared column derived at load time
    (_derived_keys computes it)."""
    table: str
    name: str
    kind: str          # square | product | quotient
    x: str
    y: str | None = None
    scale: int = 0     # decimal scale of the derived value


def _ratio(value, table: str, name: str) -> tuple[int, int]:
    """A derived column's source value, of table.name, as (numerator,
    denominator), read exactly: an int or a Fraction as it is, a bool as
    the 0/1 its column stores, anything else (a float, a Decimal, text)
    through Fraction(str(value)); SchemaMismatch naming the column for a
    value that reads as no number."""
    if type(value) is int:
        return value, 1
    if type(value) is bool:
        return int(value), 1
    if not isinstance(value, Fraction):
        try:
            value = Fraction(str(value))
        except ValueError:
            raise SchemaMismatch(f"{table}.{name} must be a number, got {value!r}") from None
    return value.numerator, value.denominator


def _derived_keys(schema: Schema, derived, rows) -> dict[str, list]:
    """Each derived column of rows, in registration order, as its order
    keys (None where a source is NULL), computed in integers: a value is
    an exact (numerator, denominator) pair, a square n^2/d^2, a product
    of two pairs, a quotient x/y rounded half to even to the column's
    scale, and its key that pair scaled and rounded half to even like a
    real's (sharing.round_half_even, which needs no lowest terms), or, at
    scale 0 (an int column), the whole number it is, or else the value as
    a Fraction, which sharing.encode_rows refuses in its turn. A later
    derived column reads an earlier one's exact values. OutOfRange naming
    the table, the column and the pk as given for a quotient by 0;
    SchemaMismatch for an unknown kind."""
    exact, out = {}, {}
    for d in derived:
        xs = exact.get(d.x)
        if xs is None:
            xs = [None if v is None else _ratio(v, schema.table, d.x)
                  for row in rows for v in [row.get(d.x)]]
        if d.kind == "square":
            pairs = [None if x is None else (x[0] * x[0], x[1] * x[1]) for x in xs]
        else:
            ys = exact.get(d.y)
            ys = ([None if x is None or v is None else _ratio(v, schema.table, d.y)
                   for x, row in zip(xs, rows) for v in [row.get(d.y)]] if ys is None
                  else [None if x is None else y for x, y in zip(xs, ys)])
            if d.kind == "product":
                pairs = [None if y is None else (x[0] * y[0], x[1] * y[1]) for x, y in zip(xs, ys)]
            elif d.kind == "quotient":
                m, pairs = 10**d.scale, []
                for row, x, y in zip(rows, xs, ys):
                    if y is None:
                        pairs.append(None)
                        continue
                    num, den = x[0] * y[1] * m, x[1] * y[0]
                    if den == 0:
                        raise OutOfRange(f"{schema.table}.{d.name} of pk {row.get(schema.key)}: "
                                         f"{d.y} is 0")
                    if den < 0:
                        num, den = -num, -den
                    pairs.append((round_half_even(num, den), m))
            elif ys.count(None) == len(ys):
                pairs = ys
            else:
                raise SchemaMismatch(f"unknown derived kind {d.kind!r}")
        exact[d.name] = pairs
        m = 10**d.scale
        out[d.name] = [None if v is None else round_half_even(v[0] * m, v[1]) if d.scale
                       else v[0] // v[1] if v[0] % v[1] == 0 else Fraction(*v) for v in pairs]
    return out


class TypeThreeRegistry:
    def __init__(self):
        self.columns: dict[str, list[DerivedColumn]] = {}

    def register(self, col: DerivedColumn):
        self.columns.setdefault(col.table, []).append(col)

    def for_table(self, table: str) -> list[DerivedColumn]:
        return self.columns.get(table, [])

    def find(self, table: str, kind: str, x: str, y: str | None = None) -> DerivedColumn | None:
        for col in self.for_table(table):
            if col.kind != kind:
                continue
            if kind == "square" and col.x == x:
                return col
            if kind == "product" and {col.x, col.y} == {x, y}:
                return col
            if kind == "quotient" and (col.x, col.y) == (x, y):
                return col
        return None


class Warehouse:
    """Data-owner view over the n simulated CSPs plus the index server.

    Everything the trusted side does goes through here: table creation,
    sharing records out, reconstructing values, signature verification,
    failure and tamper injection, and recovery of a lost CSP's slice.
    """

    def __init__(self, km: KeyMaterial, w: int = 3, weights=None, bias: int = None,
                 svm_prices=None):
        self.km = km
        self.w = w
        self.weights = tuple(weights) if weights is not None else (1.0,) * km.n
        self.bias = DEFAULT_BIAS if bias is None else bias
        self.svm_prices = tuple(svm_prices) if svm_prices is not None else None
        self.csps = {i: CspStore(i, w, km) for i in range(1, km.n + 1)}
        self.type1 = TypeOneIndex()
        self.type2 = TypeTwoIndex()
        self.type3 = TypeThreeRegistry()
        self.schemas: dict[str, Schema] = {}   # in creation order

    # participants

    def alive_csps(self) -> list[int]:
        return [i for i in sorted(self.csps) if self.csps[i].alive]

    def _csp(self, i: int) -> CspStore:
        """Provider i; UnknownParticipant when there is none."""
        try:
            return self.csps[i]
        except KeyError:
            raise UnknownParticipant(f"no CSP {i}") from None

    def inject_failure(self, i: int):
        self._csp(i).alive = False

    def heal(self, i: int):
        self._csp(i).alive = True

    def _ordered_alive(self, exclude=()) -> list[int]:
        alive = [i for i in self.alive_csps() if i not in exclude]
        if self.svm_prices is None:
            return alive
        return sorted(alive, key=lambda i: (self.svm_prices[i - 1], i))

    def rg_candidates(self, exclude=()):
        """Deterministic sequence of reconstruction groups: cheapest-first,
        then the remaining t-subsets in combination order for retries."""
        order = self._ordered_alive(exclude)
        if len(order) < self.km.t:
            raise NotEnoughAliveCsps(
                f"need t={self.km.t} alive CSPs for reconstruction, have {len(order)}"
            )
        for combo in combinations(order, self.km.t):
            yield tuple(sorted(combo))

    def choose_rg(self, exclude=()) -> tuple[int, ...]:
        return next(self.rg_candidates(exclude))

    def pinned_rg(self, rg) -> tuple[int, ...]:
        """A reconstruction group a caller pinned, ascending: MissingShare
        unless it has t members, CspUnavailable naming an unknown or a
        failed member."""
        rg = tuple(sorted(set(rg)))
        if len(rg) != self.km.t:
            raise MissingShare(f"reconstruction group must have t={self.km.t} members")
        for i in rg:
            if i not in self.csps:
                raise CspUnavailable(f"CSP {i} in reconstruction group is unknown")
            if not self.csps[i].alive:
                raise CspUnavailable(f"CSP {i} in reconstruction group is failed")
        return rg

    def read_through(self, rg, read):
        """read(group), the one reconstruction-group policy of every read:
        a pinned rg (checked by pinned_rg) makes its first signature
        mismatch fatal; without one, rg_candidates() are tried in turn
        until one verifies."""
        if rg is not None:
            return read(self.pinned_rg(rg))
        last_error = None
        for candidate in self.rg_candidates():
            try:
                return read(candidate)
            except InnerSignatureMismatch as exc:
                last_error = exc
        raise last_error

    # schema registration

    def _schema(self, table: str) -> Schema:
        try:
            return self.schemas[table]
        except KeyError:
            raise UnknownTable(table) from None

    def _register(self, schema: Schema, index_attrs=(), derived=()) -> Schema:
        """Check a table, then file it in schemas, Type I, Type II (every
        fk and each of index_attrs) and Type III: a refused table leaves
        nothing behind. Each derived column must read numeric (int, real,
        bool) columns of the table or earlier derived columns, one for a
        square and two otherwise."""
        if schema.table in self.schemas:
            raise DuplicateTable(schema.table)
        numeric = {c.name for c in schema.columns if c.kind in NUMBER_KINDS}
        for d in derived:
            if d.table != schema.table:
                raise SchemaMismatch(f"derived column {d.name} targets {d.table}")
            for source in (d.x,) if d.kind == "square" else (d.x, d.y):
                if source not in numeric:
                    raise SchemaMismatch(
                        f"derived column {d.name} reads {source!r}, which is not a numeric "
                        f"column of {schema.table} or an earlier derived column")
            numeric.add(d.name)
        full = Schema(schema.table, (*schema.columns, *(
            Column(d.name, "real" if d.scale else "int", scale=d.scale) for d in derived)))
        missing = set(index_attrs) - {c.name for c in full.columns}
        if missing:
            raise SchemaMismatch(f"cannot index unknown columns {sorted(missing)}")
        self.schemas[full.table] = full
        self.type1.create_table(full.table)
        for d in derived:
            self.type3.register(d)
        for col in full.columns[1:]:
            if col.kind == "fk" or col.name in index_attrs:
                self.type2.register(full.table, col.name)
        return full

    def create_table(self, schema: Schema, index_attrs=(), derived=()) -> Schema:
        full = self._register(schema, index_attrs, derived)
        for csp in self.csps.values():
            csp.create_table(full)
        return full

    # loading records

    def _checked_before_key(self, schema: Schema, rows) -> dict[str, list]:
        """The checks of rows that come before their keys': their derived
        columns (_derived_keys, which it returns), then the empty-string
        refusal."""
        derived = _derived_keys(schema, self.type3.for_table(schema.table), rows)
        _refuse_empty_strings(schema, rows)
        return derived

    def _encode(self, schema: Schema, rows) -> tuple[list, list]:
        """(values, keys) of rows whose keys are checked, a column per
        record field (sharing.encode_rows); a one-row batch raises the
        first failing check of its row, in the order derived, empty
        string, unknown column, fks, values."""
        return encode_rows(schema, rows, self._checked_before_key(schema, rows), self.bias,
                           self.km.p)

    def _encoded_prefix(self, schema: Schema, rows) -> tuple[int, list, list, Exception | None]:
        """(k, values, keys, error): the encoding of rows[:k], where row k
        (0-based) is the first that fails to encode on its own and error
        its error, or of every row and None. A batch that raises is
        encoded a row at a time only to find that row."""
        try:
            return (len(rows), *self._encode(schema, rows), None)
        except Exception:
            for k, row in enumerate(rows):
                try:
                    self._encode(schema, [row])
                except Exception as err:
                    return (k, *self._encode(schema, rows[:k]), err)
            raise

    def insert(self, table: str, row: dict) -> int:
        """Share one record out, as a batch of one; an existing primary key
        means update in place at the original storage group."""
        self.load_rows(table, [row])
        key = self._schema(table).key
        return whole_number(row[key], table, key)

    def load_rows(self, table: str, rows) -> int:
        """Share rows out in order; the one write path of base tables.
        Returns the count.

        As a row arrives, load_rows keeps a shallow copy of it (so a caller
        that refills one dict stores what it yielded) and its key, which
        must be a whole number and is kept as that int, and checks what
        routing needs: a key repeated among the held rows first stores
        them, a stored key whose storage group has a failed member raises
        CspUnavailable, and a new key when fewer than n-t+2 providers are
        alive raises NotEnoughAliveCsps. The held rows are encoded a column
        at a time once per APPEND_ROWS of them (sharing.encode_rows): their
        derived columns in exact integer arithmetic, the empty-string,
        unknown-column and fk checks, and each field's share chunks and
        Type II order keys, an int column's values as whole numbers. They
        are then shared a batch at a time (share_columns) and stored: the
        stored ones, each in its own storage group, by one write, and the
        new ones, placed by one storage_bitmaps call over the providers
        alive at that flush, by another.

        The first row in arrival order that fails raises, and within it
        its first failing check in this order: derived, empty string, key,
        unknown column, fks, values (an arrival check of its own comes
        after all of them). The rows before it are stored, so the store is
        what loading them alone would have left, and no row after it is
        stored; rows after it may still have been read from rows. An
        arrival error (a key that is not a whole number, CspUnavailable,
        NotEnoughAliveCsps, the iterator's own error) first encodes the
        held rows, so an earlier row's error wins over it. A provider that
        fails while the rows are read is left out of the placement of
        every later flush. A flush writes everywhere or nowhere
        (Warehouse.write), so held rows are not stored when their providers
        fail before it: held stored keys whose storage-group member failed
        make it raise CspUnavailable, and held new keys, when fewer than
        n-t+2 providers are left alive, NotEnoughAliveCsps. When a row
        raised, the flush's error is chained to the row's (__cause__) and
        the row's is raised.
        """
        schema = self._schema(table)
        km = self.km
        key = schema.key
        stored = self.type1.entries[table]
        indexed = [(name, f) for f, (name, _) in enumerate(schema.record_fields())
                   if (table, name) in self.type2.keys]
        csps = list(self.csps.values())
        group_size = km.n - km.t + 2
        held: dict[int, tuple[dict, bool]] = {}   # pk -> (row, is it new), in arrival order

        def flush(arrival=None):
            if not held:
                return
            pks = list(held)
            batch, is_new = zip(*held.values())
            held.clear()   # first, so that a failure while storing cannot store them twice
            k, values, keys, refused = self._encoded_prefix(schema, batch)
            error = refused or arrival
            try:
                self._store(schema, pks[:k], is_new[:k], values, keys, indexed)
            except Exception as write_err:
                if error is None:
                    raise
                raise error from write_err   # the row's error is the one to report
            if refused is not None:
                raise refused

        count = 0
        try:
            for row in rows:
                row = dict(row)
                try:
                    pk = whole_number(row.get(key), table, key)
                except (SchemaMismatch, OutOfRange):
                    self._checked_before_key(schema, [row])   # these come first
                    raise
                if pk in held:
                    self._encode(schema, [row])   # its own errors come before the flush's
                    flush()
                bitmap = stored.get(pk)
                try:
                    if bitmap is None:
                        # placed at flush, refused now
                        if sum([csp.alive for csp in csps]) < group_size:
                            storage_group_size(self.alive_csps(), km)
                    else:
                        for i in sorted(group_from_bitmap(bitmap).sg):
                            if not self.csps[i].alive:
                                raise CspUnavailable(
                                    f"CSP {i} stores pk {pk} of {table} and is failed; recover first"
                                )
                except (CspUnavailable, NotEnoughAliveCsps):
                    self._encode(schema, [row])   # its own errors come first
                    raise
                held[pk] = row, bitmap is None
                if len(held) >= APPEND_ROWS:
                    flush()
                count += 1
        except BaseException as err:
            flush(err)
            raise
        flush()
        return count

    def _store(self, schema: Schema, pks, is_new, values, keys, indexed):
        """Share and write encoded rows (_encode) keyed pks: the stored
        ones (is_new False) in their storage groups by one write, then the
        new ones, placed over the providers alive now, by another. indexed
        gives (attribute, field index) of each Type II index."""
        stored = self.type1.entries[schema.table]
        for new in (False, True):
            if new not in is_new:
                continue
            mine, columns, order_keys = pks, values, keys
            if (not new) in is_new:   # a batch of both kinds: this kind's rows
                mask = is_new if new else [not f for f in is_new]
                mine = list(compress(pks, mask))
                columns = [list(compress(column, mask)) for column in values]
                order_keys = [list(compress(column, mask)) for column in keys]
            bitmaps = (storage_bitmaps(mine, self.weights, self.alive_csps(), self.km) if new
                       else list(map(stored.__getitem__, mine)))
            self.write(schema, mine, share_columns(schema, mine, bitmaps, columns, self.km),
                       {name: order_keys[f] for name, f in indexed}, bitmaps if new else None)

    def write(self, schema: Schema, pks, per_csp, keys, bitmaps=None):
        """Store records that are all new or all stored, the one write path
        of base tables and cubes. per_csp gives, per provider (ascending,
        as share_columns gives it), its pks and value columns. New records
        come with their bitmaps: each provider appends its pks in one
        append_columns call and Type I files the bitmaps. Stored records
        come without: each provider rewrites its pks in one update_columns
        call. Then keys (attribute -> order keys aligned with pks, for each
        indexed attribute the write sets) go to Type II in one batch per
        attribute. pks are distinct. CspUnavailable, before anything is
        written, when a provider of per_csp is failed: a write stores
        everywhere or nowhere."""
        table = schema.table
        for i in per_csp:
            self.csps[i]._check_alive()
        for i, (mine, values) in per_csp.items():
            csp = self.csps[i]
            (csp.update_columns if bitmaps is None else csp.append_columns)(schema, mine, values)
        if bitmaps is not None:
            self.type1.set_many(table, pks, bitmaps)
        for name, column in keys.items():
            self.type2.insert_many(table, name, zip(column, pks))

    # reconstruction

    def _buckets(self, table: str, pks: list[int]) -> dict[str, tuple[list[int], list[int]]]:
        """The list pks by Type I bitmap: bitmap -> (their indices in pks,
        the pks), each in order, the bitmaps in order of first appearance;
        UnknownRecordPosition for the first pk with no bitmap. The bitmaps
        are read in one C-level pass and each bucket's pks picked by its
        indices in another; only the indices are filed one at a time."""
        try:
            bitmaps = list(map(self.type1.entries.get(table, {}).__getitem__, pks))
        except KeyError as missing:
            raise UnknownRecordPosition(f"no bitmap for {table} pk {missing.args[0]}") from None
        indices: dict[str, list[int]] = {}
        add = indices.setdefault
        for k, bitmap in enumerate(bitmaps):
            add(bitmap, []).append(k)
        pick = pks.__getitem__
        return {bitmap: (idx, list(map(pick, idx))) for bitmap, idx in indices.items()}

    def _gather(self, schema: Schema, name: str, pks, buckets, rg, x: int, refusal: str = "",
                disagreement: type[Exception] = InnerSignatureMismatch) -> list:
        """Field name of each of pks, in order, as rg sees it at abscissa x,
        the one read of many records: the pk itself for the key; the index
        server's Type II value for an fk (every fk is indexed, so no
        provider is asked and none can lie); otherwise, per storage group
        of buckets (_buckets of pks), each donor's column read once
        (fetch_shares) and solved at x (solve_column): an int, a chunk
        tuple for a string, or None per value. Donors that disagree on a
        NULL mark or a string's chunk count raise disagreement: by default
        InnerSignatureMismatch, so that read_through rotates to another
        reconstruction group, as it does when query.present_pks finds NULL
        marks that disagree."""
        if name == schema.key:
            return list(pks)
        table = schema.table
        kind = schema.column(name).kind
        if kind == "fk":
            return list(map(self.type2.value_map(table, name).__getitem__, pks))
        out = [None] * len(pks)
        for bitmap, (idx, bucket) in buckets.items():
            sg = group_from_bitmap(bitmap).sg
            rows = linear_rows(sg, rg, x, self.km)
            if not rows.donors:
                raise MissingShare(f"no CSP of rg {rg} stores pk {bucket[0]} of {table}")
            columns = [self.csps[i].fetch_shares(table, name, bucket) for i in rows.donors]
            solved = solve_column(rows, bucket, columns, sg, rg, self.km, table, refusal,
                                  disagreement, kind == "string")
            for k, value in zip(idx, solved):
                out[k] = value
        return out

    def _column(self, schema: Schema, col: Column, pks, buckets, rg) -> list:
        """Plaintext col of each of pks, in order: _gather at K_d, each
        value's chunks decoded."""
        values = self._gather(schema, col.name, pks, buckets, rg, self.km.x_kd)
        if col.kind in PLAIN_KINDS:
            return values
        RECONSTRUCTIONS.bump(_chunk_count(col, values))
        return [decode(c, col.kind, scale=col.scale, bias=self.bias) for c in values]

    def reconstruct_values(self, table: str, attr: str, pks, rg=None) -> list:
        """Fetch shares and rebuild attr of each of pks, in order, through
        read_through: rg pins the group, else groups rotate past a value
        that fails its inner signature."""
        schema = self._schema(table)
        col = schema.column(attr)
        pks = list(pks)
        buckets = self._buckets(table, pks)
        return self.read_through(rg, lambda group: self._column(schema, col, pks, buckets, group))

    def reconstruct_value(self, table: str, pk: int, attr: str, rg=None):
        """reconstruct_values of one pk."""
        return self.reconstruct_values(table, attr, [pk], rg)[0]

    def _reconstruct_rows(self, table: str, pks, rg) -> list[dict]:
        schema = self._schema(table)
        pks = list(pks)
        buckets = self._buckets(table, pks)
        columns = self.read_through(rg, lambda group: [
            self._column(schema, col, pks, buckets, group) for col in schema.columns
        ])
        names = [col.name for col in schema.columns]
        return [dict(zip(names, values)) for values in zip(*columns)]

    def reconstruct_record(self, table: str, pk: int, rg=None) -> dict:
        return self._reconstruct_rows(table, [pk], rg)[0]

    def reconstruct_table(self, table: str, rg=None) -> list[dict]:
        return self._reconstruct_rows(table, self.type1.pks(table), rg)

    # integrity

    def authoritative_sigs(self, i: int, table: str) -> list[int]:
        """Leaf signatures recomputed from what the CSP actually stores."""
        schema = self._schema(table)
        return self.km.hf_stars(i, _record_bytes(schema, *self.csps[i].slice_values(schema)))

    def _misplaced(self, i: int, table: str) -> list[int]:
        """Positions at which CSP i's pk list differs from the pks Type I
        says it stores (bitmap bit i set), in Type I order."""
        held = self.csps[i].pks[table]
        owed = [pk for pk, bitmap in self.type1.entries[table].items() if bitmap[i - 1] == "1"]
        return [g for g, (a, b) in enumerate(zip_longest(held, owed)) if a != b]

    def verify_csp(self, i: int, scope="whole") -> BreachReport:
        """Check CSP i's signature trees against leaves recomputed from its
        records, and its pk list against Type I: a record added, dropped or
        moved is a breach at its position, as is a changed one."""
        csp = self._csp(i)
        if not csp.alive:
            raise CspUnavailable(f"CSP {i} is failed")
        tables = list(self.schemas) if scope == "whole" else [scope]
        report = csp.sigtree.verify({t: self.authoritative_sigs(i, t) for t in tables}, scope)
        flagged = {(e.table, e.position) for e in report.entries}
        for table in tables:
            for g in self._misplaced(i, table):
                if (table, g) not in flagged:
                    report.entries.append(BreachEntry(table, g, ((0, g),)))
        return report

    def verify_all(self, scope="whole") -> dict[int, BreachReport]:
        return {i: self.verify_csp(i, scope) for i in self.alive_csps()}

    def inject_tamper(self, csp: int, table: str, pk: int, attr: str,
                      chunk: int = 0, delta: int = 1):
        """Flip one stored share without maintaining the signature tree.
        SchemaMismatch when attr is not a shared data column of table."""
        store = self._csp(csp)
        if self._schema(table).column(attr).kind in PLAIN_KINDS:
            raise SchemaMismatch(f"{table}.{attr} is not a shared data column")
        store.tamper(table, store.position_of(table, pk), attr, chunk, delta)

    # recovery

    def recover_csp_shares(self, target: int, rg=None) -> int:
        """Regenerate every share a CSP lost, from t healthy peers.

        Walks all tables in creation order. Each field of the target's
        records is read by one _gather at the target's abscissa: every
        donor column once per storage group, each value checked (NULL marks
        and chunk counts agree, every chunk passes the inner-signature check
        row) and the target's chunks one dot product with the donors'
        shares; fks come from the index server. Only then are its slices
        replaced and its signature trees reset, so a MissingShare,
        InnerSignatureMismatch or UnknownRecordPosition leaves the target
        untouched. Returns the number of share chunks regenerated. A pinned
        rg passes pinned_rg and must not hold the target; without one the
        cheapest donors are used, without rotation.
        """
        store = self._csp(target)
        if rg is None:
            rg = self.choose_rg(exclude=(target,))
        else:
            rg = self.pinned_rg(rg)
            if target in rg:
                raise CspUnavailable(f"CSP {target} cannot donate to its own recovery")
        x = self.km.x_id(target)
        regenerated = 0
        rebuilt = {}
        for table, schema in self.schemas.items():
            pks = [pk for pk, bitmap in self.type1.entries[table].items()
                   if bitmap[target - 1] == "1"]
            buckets = self._buckets(table, pks)
            values = [self._gather(schema, name, pks, buckets, rg, x, ": refusing to recover",
                                   MissingShare) for name, _ in schema.record_fields()]
            regenerated += sum(_chunk_count(col, vals)
                               for col, vals in zip(schema.columns[1:], values)
                               if col.kind != "fk")
            rebuilt[table] = pks, values
        for table, (pks, values) in rebuilt.items():
            store.reset_table(self._schema(table), pks, values)
        return regenerated

    # persistence

    def save(self, root) -> None:
        """Write the whole simulated deployment under root.

        One directory per CSP with its table slices, signature trees and
        state; the index server's files under index/. Plain text, decimal
        integers throughout, so diffs stay readable.
        """
        root = Path(root)
        for i, csp in self.csps.items():
            d = root / f"csp{i}"
            d.mkdir(parents=True, exist_ok=True)
            sigtree = csp.sigtree
            for table, schema in self.schemas.items():
                (d / f"{table}.shares").write_text(
                    _shares_text(schema, *csp.slice_values(schema))
                )
                (d / f"{table}.sigtree").write_text(
                    _triples_text(sigtree.record_trees[table].levels)
                )
            (d / "_tables.sigtree").write_text(
                "\t".join(["tables"] + sigtree.table_order) + "\n"
                + _triples_text(sigtree.table_layer.levels)
            )
            (d / "state").write_text(
                f"alive\t{int(csp.alive)}\n"
                f"bytes_transferred\t{csp.bytes_transferred}\n"
            )
        idx = root / "index"
        idx.mkdir(parents=True, exist_ok=True)
        (idx / "type1.bitmap").write_text("".join(
            _bitmaps_text(table, self.type1.entries[table]) for table in self.schemas
        ))
        t2 = idx / "type2"
        t2.mkdir(exist_ok=True)
        for table, attr in self.type2.keys:
            (t2 / f"{table}.{attr}.idx").write_text(_type2_text(self.type2.entries(table, attr)))
        (idx / "tables").write_text("".join(name + "\n" for name in self.schemas))

    @classmethod
    def load(cls, root, km: KeyMaterial, table_specs, w: int = 3, weights=None,
             bias: int = None, svm_prices=None) -> "Warehouse":
        """Rebuild a Warehouse from disk.

        table_specs: iterable of (schema, index_attrs, derived) exactly as
        passed to create_table; the on-disk tables file fixes the order.
        Every file is read here, but each provider's signature trees are
        parsed on first use (CspStore.sigtree). SchemaMismatch for a
        malformed state file, when the Type II files are not exactly those
        of the configured indexes, when an fk index lacks a record, or when
        any index names a pk Type I lacks.
        """
        root = Path(root)
        wh = cls(km, w=w, weights=weights, bias=bias, svm_prices=svm_prices)
        specs = {}
        for schema, index_attrs, derived in table_specs:
            specs[schema.table] = (schema, index_attrs, derived)
        order = [
            line for line in (root / "index" / "tables").read_text().splitlines() if line
        ]
        for name in order:
            if name not in specs:
                raise UnknownTable(f"{name} on disk but not configured")
            wh._register(*specs[name])
        for i, csp in wh.csps.items():
            d = root / f"csp{i}"
            csp.alive, csp.bytes_transferred = _parse_state(i, (d / "state").read_text())
            trees = {}
            for table, schema in wh.schemas.items():
                csp._set_slice(
                    schema, *_parse_shares(schema, (d / f"{table}.shares").read_text())
                )
                trees[table] = (d / f"{table}.sigtree").read_text()
            csp.saved_trees = (d / "_tables.sigtree").read_text(), trees
        _read_bitmaps(wh.type1, (root / "index" / "type1.bitmap").read_text())
        # save writes one file per index, an empty index too: a file
        # missing or extra means a torn or edited store
        t2 = root / "index" / "type2"
        files = {f"{table}.{attr}.idx": (table, attr) for table, attr in wh.type2.keys}
        extra = sorted({path.name for path in t2.glob("*.idx")} - files.keys())
        if extra:
            raise SchemaMismatch(
                f"index/type2/{extra[0]} is on disk but that index is not configured"
            )
        for name, index in files.items():
            path = t2 / name
            if not path.is_file():
                raise SchemaMismatch(f"index/type2/{name} is missing for a configured index")
            # the file is in (key, pk) order, so save's sort of an unchanged index is linear
            keys = wh.type2.keys[index] = {pk: key for key, pk in _parse_type2(path.read_text())}
            # reads take every fk from here, so an fk index must hold every record,
            # and queries filter by the index alone, so no index may add one
            table, attr = index
            held = wh.type1.entries[table].keys()
            if wh.schemas[table].column(attr).kind == "fk" and keys.keys() != held:
                raise SchemaMismatch(f"index/type2/{name} does not hold every {table} record")
            if not keys.keys() <= held:
                raise SchemaMismatch(f"index/type2/{name} names {table} pk "
                                     f"{min(keys.keys() - held)}, which Type I lacks")
        return wh


def _parse_state(i: int, text: str) -> tuple[bool, int]:
    """(alive, bytes_transferred) of csp<i>/state, one tab-separated name
    and value a line; empty lines and other names (older stores also
    counted stored bytes) are skipped."""
    try:
        state = dict(line.split("\t") for line in text.splitlines() if line)
    except ValueError:
        raise SchemaMismatch(f"csp{i}/state: a line that is not a name and a value") from None
    alive, moved = state.get("alive"), state.get("bytes_transferred", "")
    if alive not in ("0", "1"):
        raise SchemaMismatch(f"csp{i}/state: alive is not 0 or 1")
    if not moved.isdecimal():
        raise SchemaMismatch(f"csp{i}/state: bytes_transferred is not a decimal integer")
    return alive == "1", int(moved)


def _triples_text(levels) -> str:
    """The (level, index, value) lines of a tree's node levels, leaves
    first, each level in index order."""
    return "".join(
        "".join(map(f"{level}\t{{}}\t{{}}\n".format, range(len(nodes)), nodes))
        for level, nodes in enumerate(levels)
    )


def _parse_triples(lines) -> tuple[list[int], list[int], list[int]]:
    """The levels, indices and values of the (level, index, value) lines,
    as three aligned columns; empty lines are skipped."""
    flat = _fields(list(filter(None, lines)), 3)
    return list(map(int, flat[0::3])), list(map(int, flat[1::3])), list(map(int, flat[2::3]))


def _parse_sigtree(csp: int, w: int, km: KeyMaterial, layer_text: str,
                   texts: dict[str, str]) -> SignatureTree:
    """A provider's signature trees from its saved _tables.sigtree text and
    the .sigtree text of each table."""
    sigtree = SignatureTree(csp, w, km)
    layer_lines = layer_text.splitlines()
    names = layer_lines[0].split("\t")[1:]
    sigtree.table_order = names
    sigtree.table_pos = {name: j for j, name in enumerate(names)}
    sigtree.table_layer = WaryTree.from_triples(w, km.p, *_parse_triples(layer_lines[1:]))
    for table, text in texts.items():
        sigtree.record_trees[table] = WaryTree.from_triples(
            w, km.p, *_parse_triples(text.splitlines())
        )
    return sigtree


def _bitmaps_text(table: str, entries: dict[int, str]) -> str:
    """The table's Type I entries as (table, pk, bitmap) lines."""
    return "".join(map("{}\t{}\t{}\n".format, repeat(table), entries, entries.values()))


def _read_bitmaps(type1: TypeOneIndex, text: str):
    """File each (table, pk, bitmap) line of text in order, as one
    set_many per table; empty lines are skipped. SchemaMismatch when two
    lines name one record."""
    flat = _fields(list(filter(None, text.splitlines())), 3)
    tables, pks, bitmaps = flat[0::3], list(map(int, flat[1::3])), flat[2::3]
    for table in dict.fromkeys(tables):
        rows = list(map(table.__eq__, tables))
        mine = list(compress(pks, rows))
        if len(set(mine)) < len(mine):
            raise SchemaMismatch(f"index/type1.bitmap: a {table} pk on two lines")
        type1.set_many(table, mine, list(compress(bitmaps, rows)))


def _type2_text(entries) -> str:
    """A Type II index's (key, pk) entries as JSON [key, pk] lines."""
    return "".join([
        f"[{key}, {pk}]\n" if type(key) is int else json.dumps([key, pk]) + "\n"
        for key, pk in entries
    ])


_BRACKETS = str.maketrans("", "", "[],")
# an .idx file of integer keys exactly as _type2_text writes it: every
# line "[key, pk]" of two decimal ints in str(int) form
_INT = r"(?:0|-?[1-9]\d*)"
_TYPE2_INTS = re.compile(rf"(?:\[{_INT}, {_INT}\]\n)*", re.ASCII)


def _parse_type2(text: str) -> list[tuple]:
    """Inverse of _type2_text: the (key, pk) entries of an .idx file in file
    order. A file of integer keys that _type2_text would write again byte
    for byte (_TYPE2_INTS) is read as columns; any other goes through
    json, empty lines skipped."""
    if _TYPE2_INTS.fullmatch(text):
        tokens = text.translate(_BRACKETS).split()
        return list(zip(map(int, tokens[0::2]), map(int, tokens[1::2])))
    lines = [line for line in text.splitlines() if line]
    return [(key, pk) for key, pk in json.loads("[" + ",".join(lines) + "]")]
