"""The cloud storage providers (CSPs), each holding its shares of the
tables and the signature trees over them.

A provider keeps its slice of every shared table as columns, each fact
once: the pks in position order (positions feed its signature tree) with
a pk -> position map, per fk column a pk -> value map, and per data
attribute a share column (pk -> share, non-NULL values only, so a share
sum is one C-level pass over a flat dict) beside the set of pks whose
value is NULL. A share of a number is one int, of a string a tuple of
one chunk per UTF-8 byte. Its methods are its interface: the warehouse
reads only alive, index and bytes_transferred besides, and hands it pks,
fks, attribute names, share columns, and leaf signatures and table-layer
markers, never a plaintext, order key or chunk, and never a key: the
client signs every record (Warehouse.sign), so a provider cannot re-sign
a share it changed (tests/test_provider_boundary.py).

On disk, under <root>/csp<i>/ (all integers decimal text):
    <table>.shares     tab-separated records, share lists comma-joined,
                       NULL literal for nulls
    <table>.sigtree    the record tree's leaves, (0, index, value) lines
    _tables.sigtree    table order plus the table layer's leaves
    state              alive flag and bytes_transferred (of its reads)

save keeps the text it wrote for every file but state (CspStore.kept),
about the size of those files, and writes it again at the next save;
_write, which every write of a table passes through (appends, updates,
create_table, reset_table and load alike), and tamper drop that table's
texts and _tables.sigtree's, so the next save formats them anew. A
change that does not go through these methods (an edit of csp.columns
or csp.plain after a save, say) is not seen by the next save. load keeps
no text, and parses the trees at their first use (CspStore.parse_trees):
it rebuilds the sums above each tree's leaves at its own fan-out, skips
the upper levels older saves wrote, and refuses leaf indices that do not
run 0, 1, ... and a table layer without one leaf per table. A write
checks first (check_writable) that the trees parse and that the table's
record tree has one leaf per record held, so that a malformed tree stops
it before anything changes.
"""

from __future__ import annotations

from itertools import compress, repeat

from .errors import (
    CspUnavailable,
    DuplicateTable,
    OutOfRange,
    SchemaMismatch,
    UnknownRecordPosition,
    UnknownTable,
)
from .sharing import Schema, positions
from .sigtree import BreachReport, SignatureTree, WaryTree

NULL_LITERAL = "NULL"


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


def _unpack(schema: Schema, rec: StoredRecord) -> list[list]:
    """rec's field values as a batch of one, one list per non-key field."""
    return [[rec.plain[name] if is_fk else rec.shares.get(name)]
            for name, is_fk in schema.record_fields()]


# The text codecs work a column at a time: a writer formats whole columns
# through one format string, a parser splits a whole file once and reads
# each field as a strided slice, so Python code runs per file and column,
# not per line (per value only for NULLs and shares of several chunks).


def _read_saved(d, name: str) -> str:
    """The text of the saved file d/name; SchemaMismatch naming it as
    <d's name>/<name> when it is missing (a torn or edited store)."""
    try:
        return (d / name).read_text()
    except FileNotFoundError:
        raise SchemaMismatch(f"{d.name}/{name} is missing") from None


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
    state. It holds no key: the client hands it every leaf signature."""

    def __init__(self, index: int, w: int, p: int):
        self.index = index
        self.p = p
        self.alive = True
        self.pks: dict[str, list[int]] = {}                # table -> pks by position
        self.positions: dict[str, dict[int, int]] = {}     # table -> pk -> position
        self.plain: dict[str, dict[str, dict[int, int]]] = {}   # table -> fk -> pk -> value
        # table -> attr -> pk -> share (an int, a chunk tuple for a string), non-NULL values
        self.columns: dict[str, dict[str, dict[int, int | tuple[int, ...]]]] = {}
        self.nulls: dict[str, dict[str, set[int]]] = {}    # table -> attr -> NULL pks
        self.strings: dict[str, frozenset[str]] = {}       # table -> its string attributes
        self._sigtree = SignatureTree(w, p)
        # saved trees not parsed yet: (_tables.sigtree text, table -> .sigtree text)
        self.saved_trees: tuple[str, dict[str, str]] | None = None
        self.kept: dict[str, str] = {}   # file name -> the text save wrote, until a write drops it
        self.bytes_transferred = 0

    @property
    def sigtree(self) -> SignatureTree:
        """This provider's signature trees, parsed first (parse_trees)."""
        self.parse_trees()
        return self._sigtree

    def parse_trees(self):
        """Parse the trees Warehouse.load read, if it has not been done:
        at their first use, so a command that neither checks nor changes
        them never builds one. A malformed file (_parse_sigtree) raises
        SchemaMismatch naming csp<i>/<file> at every use until then; each
        write parses before it changes anything."""
        if self.saved_trees is not None:
            try:
                self._sigtree = _parse_sigtree(self._sigtree.w, self.p, *self.saved_trees)
            except SchemaMismatch as err:
                raise SchemaMismatch(f"csp{self.index}/{err}") from None
            self.saved_trees = None

    def check_alive(self):
        """CspUnavailable when this provider is failed."""
        if not self.alive:
            raise CspUnavailable(f"CSP {self.index} is failed")

    def check_writable(self, table: str):
        """What a write of table checks before it changes anything here:
        check_alive, parse_trees, then SchemaMismatch naming
        csp<i>/<table>.sigtree unless table's record tree has one leaf per
        record held. verify reports such a tree as a breach, and recovery
        (reset_table) rebuilds it."""
        self.check_alive()
        held, leaves = len(self.held_pks(table)), self.sigtree.record_trees[table].leaf_count
        if held != leaves:
            raise SchemaMismatch(f"csp{self.index}/{table}.sigtree: {leaves} leaves for the"
                                 f" {held} records held")

    def create_table(self, schema: Schema, marker: int):
        """An empty slice of the table, its layer leaf the client's marker."""
        if schema.table in self.pks:
            raise DuplicateTable(schema.table)
        tree = self.sigtree
        self._set_slice(schema, [], [[] for _ in schema.record_fields()])
        tree.create_table(schema.table, marker)

    @property
    def tables(self) -> dict[str, list[StoredRecord]]:
        """table -> records in position order, built from the columns on
        every access: a read-only view, editing it changes nothing stored."""
        return {table: [self._record(table, pk) for pk in pks] for table, pks in self.pks.items()}

    def _record(self, table: str, pk: int) -> StoredRecord:
        return StoredRecord(pk, {name: column[pk] for name, column in self.plain[table].items()},
                            {name: column.get(pk) for name, column in self.columns[table].items()})

    def held_pks(self, table: str) -> list[int]:
        """The pks of table stored here, by position (UnknownTable for a
        table it lacks); callers must not modify the list."""
        try:
            return self.pks[table]
        except KeyError:
            raise UnknownTable(table) from None

    def _pk_at(self, table: str, pos: int) -> int:
        pks = self.held_pks(table)
        if not 0 <= pos < len(pks):
            raise UnknownRecordPosition(f"{table}[{pos}] at CSP {self.index}")
        return pks[pos]

    def slice_values(self, schema: Schema) -> tuple[list[int], list[list]]:
        """The table slice as (pks by position, field values), read from
        the columns."""
        pks = self.held_pks(schema.table)
        return pks, self._values(schema, pks)

    def _values(self, schema: Schema, pks) -> list[list]:
        """The field values of the records at pks, one column per field."""
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
        attribute's NULL set, and out of the other one. Drops the table's
        kept text first."""
        table = schema.table
        self._drop_kept(table)
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

    def _drop_kept(self, table: str):
        """Forget the text save kept for table's files and _tables.sigtree."""
        for name in (f"{table}.shares", f"{table}.sigtree", "_tables.sigtree"):
            self.kept.pop(name, None)

    def append_columns(self, schema: Schema, pks, values, sigs) -> int:
        """Append new records in order, given as a batch (pks and value
        columns) with their leaf signatures: pks, positions and columns,
        and one signature-tree extension. Returns the position of the
        first."""
        table = schema.table
        self.check_writable(table)
        held = self.held_pks(table)
        start = len(held)
        held.extend(pks)
        self.positions[table].update(zip(pks, range(start, len(held))))
        self._write(schema, pks, values)
        self.sigtree.insert_records(table, sigs)
        return start

    def update_columns(self, schema: Schema, pks, values, sigs):
        """Overwrite the stored records at pks (distinct) with a batch of
        values and their leaf signatures: one write of the columns, one
        signature-tree pass that touches each node once. Nothing changes
        when a pk is not stored here."""
        table = schema.table
        self.check_writable(table)
        self._require_held(table, pks)
        positions = list(map(self.positions[table].__getitem__, pks))
        self._write(schema, pks, values)
        self.sigtree.update_records(table, positions, sigs)

    def fetch_records(self, schema: Schema, pks) -> list[list]:
        """The stored values of the records at pks, as value columns: 64 bytes a record."""
        self.check_alive()
        table = schema.table
        self._require_held(table, pks)
        self.bytes_transferred += 64 * len(pks)
        return self._values(schema, pks)

    def put_shared_record(self, schema: Schema, rec: StoredRecord, sig: int) -> int:
        """append_columns of one record and its leaf signature."""
        return self.append_columns(schema, [rec.pk], _unpack(schema, rec), [sig])

    def update_shared_record(self, schema: Schema, pos: int, rec: StoredRecord, sig: int):
        """Overwrite the record at pos with rec's values and leaf signature."""
        self.check_alive()
        self.update_columns(schema, [self._pk_at(schema.table, pos)], _unpack(schema, rec), [sig])

    def position_of(self, table: str, pk: int) -> int:
        pos = self.positions.get(table, {}).get(pk)
        if pos is None:
            raise UnknownRecordPosition(f"pk {pk} not stored at CSP {self.index}")
        return pos

    def fetch_share(self, table: str, pk: int, attr: str) -> int | tuple[int, ...] | None:
        """fetch_shares of one pk."""
        return self.fetch_shares(table, attr, [pk])[0]

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
        self.check_alive()
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
        self.check_alive()
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
        self.check_alive()
        column = self.columns.get(table, {}).get(attr, {})
        share, p = column.__getitem__, self.p
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
        mutated[chunk] = (mutated[chunk] + delta) % self.p
        self._drop_kept(table)
        column[pk] = tuple(mutated) if string else mutated[0]

    def reset_table(self, schema: Schema, pks: list[int], values: list[list], sigs,
                    marker: int):
        """Replace a table slice wholesale with its leaf signatures
        (recovery path); rebuilds the record tree and sets its table-layer
        leaf from the client's marker."""
        tree = self.sigtree
        self._set_slice(schema, pks, values)
        tree.reset_records(schema.table, sigs, marker)

    def verify(self, leaves: dict[str, list[int]], marker: int, scope="whole") -> BreachReport:
        """SignatureTree.verify against table -> leaves recomputed from the
        records and the client's marker."""
        return self.sigtree.verify(leaves, marker, scope)

    def save(self, d, schemas: dict[str, Schema]):
        """Write each table's .shares and .sigtree, then _tables.sigtree and
        state, under d: the kept text of each file but state, formatted
        and kept where a write has dropped it."""
        d.mkdir(parents=True, exist_ok=True)
        kept = self.kept
        for table, schema in schemas.items():
            shares, tree = f"{table}.shares", f"{table}.sigtree"
            if shares not in kept:   # tree first: a malformed saved tree raises, keeping neither
                kept[tree] = _leaves_text(self.sigtree.record_trees[table].levels[0])
                kept[shares] = _shares_text(schema, *self.slice_values(schema))
            (d / shares).write_text(kept[shares])
            (d / tree).write_text(kept[tree])
        if "_tables.sigtree" not in kept:
            sigtree = self.sigtree
            kept["_tables.sigtree"] = ("\t".join(["tables"] + sigtree.table_order) + "\n"
                                       + _leaves_text(sigtree.table_layer.levels[0]))
        (d / "_tables.sigtree").write_text(kept["_tables.sigtree"])
        (d / "state").write_text(f"alive\t{int(self.alive)}\n"
                                 f"bytes_transferred\t{self.bytes_transferred}\n")

    def load(self, d, schemas: dict[str, Schema]):
        """Refill this provider from the files save wrote under d, trees
        kept as text until first use; SchemaMismatch for a missing file
        (_read_saved) or a bad state or .shares file."""
        self.alive, self.bytes_transferred = _parse_state(self.index, _read_saved(d, "state"))
        trees = {}
        for table, schema in schemas.items():
            self._set_slice(schema, *_parse_shares(schema, _read_saved(d, f"{table}.shares")))
            trees[table] = _read_saved(d, f"{table}.sigtree")
        self.saved_trees = _read_saved(d, "_tables.sigtree"), trees


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


def _leaves_text(leaves) -> str:
    """A tree's saved lines: the (level, index, value) line of each leaf,
    level 0, in index order."""
    return "".join(map("0\t{}\t{}\n".format, range(len(leaves)), leaves))


def _parse_leaves(name: str, lines) -> list[int]:
    """The leaf values of a tree file's (level, index, value) lines, in
    index order, skipping empty lines and older saves' upper levels;
    SchemaMismatch naming the file for a line that is not three decimal
    integers, or naming the first triple whose level is negative or whose
    index breaks the leaves' run 0, 1, ..."""
    try:
        nums = list(map(int, _fields(list(filter(None, lines)), 3)))
    except ValueError as err:
        raise SchemaMismatch(f"{name}: {err}") from None
    levels = nums[0::3]
    leaf = [level <= 0 for level in levels]
    kept_levels, kept = list(compress(levels, leaf)), list(compress(nums[1::3], leaf))
    if any(kept_levels) or kept != list(range(len(kept))):
        bad = next(t for k, t in enumerate(zip(kept_levels, kept)) if t != (0, k))
        raise SchemaMismatch(f"{name}: non-contiguous triple ({bad[0]}, {bad[1]})")
    return list(compress(nums[2::3], leaf))


def _parse_sigtree(w: int, p: int, layer_text: str, texts: dict[str, str]) -> SignatureTree:
    """A provider's trees at fan-out w from the leaves (_parse_leaves) of
    its _tables.sigtree text and each table's .sigtree text (texts, in
    index/tables order); SchemaMismatch naming the file for a malformed
    one, a table layer without one leaf per table, or a _tables.sigtree
    header that is not tables and then exactly those tables."""
    layer_lines = layer_text.splitlines()
    if layer_lines[:1] != ["\t".join(["tables", *texts])]:
        raise SchemaMismatch("_tables.sigtree: the header is not tables and the tables of"
                             " index/tables, in order")
    layer = _parse_leaves("_tables.sigtree", layer_lines[1:])
    if len(layer) != len(texts):
        raise SchemaMismatch(f"_tables.sigtree: {len(layer)} table-layer leaves for"
                             f" {len(texts)} tables")
    tree = SignatureTree(w, p)
    for (t, text), marked_total in zip(texts.items(), layer):
        tree.create_table(t, marked_total)
        leaves = _parse_leaves(f"{t}.sigtree", text.splitlines())
        tree.record_trees[t] = WaryTree.from_leaves(w, p, leaves)
    return tree
