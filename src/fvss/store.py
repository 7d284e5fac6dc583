"""The warehouse: the data owner's client over the providers (provider)
and the index server (index).

Every record, base row or cube cell, is stored by one write,
`Warehouse.write`, and signed by one function, `Warehouse.sign`, as only
the client holds the providers' signing keys; a field of many records is
read by one gather, `Warehouse._gather`, for reconstruction and recovery
alike; every read picks its providers through `Warehouse.read_through`.
`load_rows` encodes each APPEND_ROWS of held rows a column at a time
(_derived_keys, then sharing.encode_rows). save and load call each
role's own in turn; the client's one file, <root>/index/tables, lists
its schemas, its one table registry, in creation order.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, zip_longest
from pathlib import Path

from .errors import (
    CspUnavailable,
    DuplicateTable,
    InnerSignatureMismatch,
    MissingShare,
    NotEnoughAliveCsps,
    OutOfRange,
    SchemaMismatch,
    UnknownParticipant,
    UnknownRecordPosition,
    UnknownTable,
)
from .index import TypeOneIndex, TypeThreeRegistry, TypeTwoIndex
from .keyed import KeyMaterial
from .provider import CspStore
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
from .sigtree import BreachEntry, BreachReport

# new rows Warehouse.load_rows holds before handing them to the providers:
# the bound keeps memory flat on big loads, and loading 5,000 rows as one
# batch made later set-heavy reads in the same process about 4% slower
APPEND_ROWS = 500

_NULL_BYTES = b"\xff"         # a NULL field in a record's signature input
_MARKER_BYTES = bytes(8)      # a table-layer leaf adds HF*_i of this to its records' total


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


def _derived_keys(schema: Schema, derived, rows, exact: dict = None) -> dict[str, list]:
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
    SchemaMismatch for an unknown kind. exact, if given, receives each
    derived column's exact values as (numerator, denominator) pairs (a
    quotient's rounded to its scale), which error messages show."""
    exact, out = {} if exact is None else exact, {}
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
        self.csps = {i: CspStore(i, w, km.p) for i in range(1, km.n + 1)}
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
        """Register a table and give every provider an empty slice of it,
        after parsing every provider's saved trees (CspStore.parse_trees)
        so that a malformed one changes nothing."""
        for csp in self.csps.values():
            csp.parse_trees()
        full = self._register(schema, index_attrs, derived)
        for i, csp in self.csps.items():
            csp.create_table(full, self.km.hf_star(i, _MARKER_BYTES))
        return full

    # loading records

    def _checked_before_key(self, schema: Schema, rows) -> tuple[dict, dict]:
        """The checks of rows that come before their keys': their derived
        columns (_derived_keys, whose keys and exact values it returns),
        then the empty-string refusal."""
        exact = {}
        derived = _derived_keys(schema, self.type3.for_table(schema.table), rows, exact)
        _refuse_empty_strings(schema, rows)
        return derived, exact

    def _encode(self, schema: Schema, rows) -> tuple[list, list]:
        """(values, keys) of rows whose keys are checked, a column per
        record field (sharing.encode_rows); a one-row batch raises the
        first failing check of its row, in the order derived, empty
        string, unknown column, fks, values."""
        return encode_rows(schema, rows, *self._checked_before_key(schema, rows), self.bias,
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
                   if self.type2.is_indexed(table, name)]
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
        written, when a provider of per_csp is failed, and SchemaMismatch
        when one's trees are malformed (CspStore.check_writable): a write
        stores everywhere or nowhere."""
        table = schema.table
        for i in per_csp:
            self.csps[i].check_writable(table)
        for i, (mine, values) in per_csp.items():
            csp = self.csps[i]
            (csp.update_columns if bitmaps is None else csp.append_columns)(
                schema, mine, values, self.sign(i, schema, mine, values))
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

    def sign(self, i: int, schema: Schema, pks, values) -> list[int]:
        """Provider i's leaf signature HF*_i(_record_bytes) of each record of
        a batch (pks and value columns). Only the client holds HF*_i, so
        every write, recovery and verification signs here."""
        return self.km.hf_stars(i, _record_bytes(schema, pks, values))

    def _misplaced(self, i: int, table: str) -> list[int]:
        """Positions at which CSP i's pk list differs from the pks Type I
        says it stores (bitmap bit i set), in Type I order."""
        held = self.csps[i].held_pks(table)
        owed = [pk for pk, bitmap in self.type1.entries[table].items() if bitmap[i - 1] == "1"]
        return [g for g, (a, b) in enumerate(zip_longest(held, owed)) if a != b]

    def verify_csp(self, i: int, scope="whole") -> BreachReport:
        """Check CSP i's signature trees against leaves recomputed from its
        records, and its pk list against Type I: a record added, dropped or
        moved is a breach at its position, as is a changed one."""
        csp = self._csp(i)
        csp.check_alive()
        tables = list(self.schemas) if scope == "whole" else [scope]
        schemas = list(map(self._schema, tables))
        report = csp.verify({schema.table: self.sign(i, schema, *csp.slice_values(schema))
                             for schema in schemas}, self.km.hf_star(i, _MARKER_BYTES), scope)
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
        marker = self.km.hf_star(target, _MARKER_BYTES)
        for table, (pks, values) in rebuilt.items():
            schema = self._schema(table)
            store.reset_table(schema, pks, values, self.sign(target, schema, pks, values), marker)
        return regenerated

    # persistence

    def save(self, root) -> None:
        """Write the whole simulated deployment under root as plain text:
        each provider's files under csp<i>/, the index server's under
        index/, then the tables file. Each role writes the text it kept
        from its last save for every file no write has changed since, and
        formats the rest; the state files and the tables file are always
        formatted."""
        root = Path(root)
        for i, csp in self.csps.items():
            csp.save(root / f"csp{i}", self.schemas)
        idx = root / "index"
        idx.mkdir(parents=True, exist_ok=True)
        self.type1.save(idx, self.schemas)
        self.type2.save(idx / "type2")
        (idx / "tables").write_text("".join(name + "\n" for name in self.schemas))

    @classmethod
    def load(cls, root, km: KeyMaterial, table_specs, w: int = 3, weights=None,
             bias: int = None, svm_prices=None) -> "Warehouse":
        """Rebuild a Warehouse from disk, each role reading its own files
        in save's order. table_specs: (schema, index_attrs, derived) as
        passed to create_table; the on-disk tables file fixes the order."""
        root = Path(root)
        wh = cls(km, w=w, weights=weights, bias=bias, svm_prices=svm_prices)
        specs = {spec[0].table: spec for spec in table_specs}
        for name in filter(None, (root / "index" / "tables").read_text().splitlines()):
            if name not in specs:
                raise UnknownTable(f"{name} on disk but not configured")
            wh._register(*specs[name])
        for i, csp in wh.csps.items():
            csp.load(root / f"csp{i}", wh.schemas)
        wh.type1.load(root / "index", km.n, km.t)
        wh.type2.load(root / "index" / "type2", wh.schemas, wh.type1)
        return wh
