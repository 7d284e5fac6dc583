"""The trusted index server: Type I location bitmaps, Type II plaintext
indices and the Type III derived-column registry.

Type II order keys are sharing.typed_keys, the column code that also
makes a value's share chunks, so this node is trusted by design. Its
sets and maps are maintained on every write and rebuilt on load, which
refuses with SchemaMismatch naming the file a type1.bitmap line that is
not a table, an integer pk and a bitmap, and an .idx line that is not a
JSON [key, pk] pair of a key of its column's type (a str for a string
column, an int otherwise) and an int pk.

On disk, under <root>/index/:
    type1.bitmap        table, pk, bitmap lines
    type2/<t>.<a>.idx   one JSON [key, pk] entry per line, in (key, pk)
                        order; exactly one file per configured index

save keeps the text it wrote, per table for Type I (its part of
type1.bitmap) and per index for Type II (its .idx file), about the size
of those files, and writes it again at the next save. TypeOneIndex.set_many
and TypeTwoIndex.insert_many, which every write of a table or an index
passes through (Type I's load too), and TypeTwoIndex.load drop it, so the
next save formats it anew; create_table and register file no entries. A
change that does not go through these methods (an edit of type1.entries
or of a value_map after a save, say) is not seen by the next save. load
keeps no text.
"""

from __future__ import annotations

import json
import re
from itertools import chain, compress, repeat
from operator import eq, ge, gt, le, lt, ne
from typing import NamedTuple

from .errors import EmptyInput, NotIndexed, SchemaMismatch, UnknownRecordPosition, UnknownTable
from .provider import _fields, _walks


class TypeOneIndex:
    """(table, pk) -> location bitmap, in insertion order per table, plus
    per table and CSP i the set of pks whose bitmap has 0 at position i."""

    def __init__(self):
        self.entries: dict[str, dict[int, str]] = {}
        self.absent: dict[str, dict[int, set[int]]] = {}
        self.kept: dict[str, str] = {}   # table -> its type1.bitmap lines as save wrote them

    def create_table(self, table: str):
        self.entries.setdefault(table, {})
        self.absent.setdefault(table, {})

    def set_many(self, table: str, pks: list[int], bitmaps: list[str]):
        """File each (pk, bitmap) pair in order, a bitmap at a time in
        C-level passes; the pks are distinct and new to the table. Drops
        the table's kept text."""
        self.kept.pop(table, None)
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

    def save(self, idx, tables):
        """Write idx/type1.bitmap: each table's kept lines, formatted and
        kept where a write has dropped them."""
        kept = self.kept
        for table in tables:
            if table not in kept:
                kept[table] = _bitmaps_text(table, self.entries[table])
        (idx / "type1.bitmap").write_text("".join([kept[table] for table in tables]))

    def load(self, idx, n: int, t: int):
        """File idx/type1.bitmap (_read_bitmaps); SchemaMismatch for a line
        of a table that create_table has not filed (index/tables does not
        list it), and unless each bitmap is n characters of 0 or 1 with at
        least n-t+2 ones, as every storage group and cube cell has."""
        known = set(self.entries)
        _read_bitmaps(self, (idx / "type1.bitmap").read_text())
        unknown = [table for table in self.entries if table not in known]
        if unknown:
            raise SchemaMismatch(f"index/type1.bitmap: table {unknown[0]!r} "
                                 f"is not in index/tables")
        least = n - t + 2
        for bitmap in set(chain.from_iterable(map(dict.values, self.entries.values()))):
            if len(bitmap) != n or bitmap.strip("01") or bitmap.count("1") < least:
                raise SchemaMismatch(f"index/type1.bitmap: bitmap {bitmap!r} is not {n} "
                                     f"characters of 0 or 1 with at least {least} ones")


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
        self.kept: dict[tuple[str, str], str] = {}   # index -> its .idx text as save wrote it

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
        key, or drop it for a None key. Drops the index's kept text."""
        keys = self._index(table, attr)
        self.kept.pop((table, attr), None)
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

    def save(self, t2):
        """Write one .idx file per index under t2, an empty one too: its
        kept text, formatted and kept where a write has dropped it."""
        t2.mkdir(exist_ok=True)
        kept = self.kept
        for table, attr in self.keys:
            if (table, attr) not in kept:
                kept[table, attr] = _type2_text(self.entries(table, attr))
            (t2 / f"{table}.{attr}.idx").write_text(kept[table, attr])

    def load(self, t2, schemas, type1: TypeOneIndex):
        """Read each index from its file under t2. SchemaMismatch naming the
        file when the files are not exactly the indexes' (a torn or edited
        store), for a line that is not a JSON [key, pk] pair, a key that is
        not of its column's type (a str for a string column, an int
        otherwise) or a pk that is not an int (_parse_type2), when an fk
        index, which reads take every fk from, does not hold exactly
        type1's records, or when any names a pk type1 lacks."""
        files = {f"{table}.{attr}.idx": (table, attr) for table, attr in self.keys}
        extra = sorted({path.name for path in t2.glob("*.idx")} - files.keys())
        if extra:
            raise SchemaMismatch(
                f"index/type2/{extra[0]} is on disk but that index is not configured")
        for name, (table, attr) in files.items():
            if not (t2 / name).is_file():
                raise SchemaMismatch(f"index/type2/{name} is missing for a configured index")
            # the file is in (key, pk) order, so save's sort of an unchanged index is linear
            kind = schemas[table].column(attr).kind
            try:
                entries = _parse_type2((t2 / name).read_text(), str if kind == "string" else int)
            except SchemaMismatch as err:
                raise SchemaMismatch(f"index/type2/{name}: {err}") from None
            except (ValueError, TypeError):
                raise SchemaMismatch(f"index/type2/{name}: a line that is not a JSON [key, pk]"
                                     " pair") from None
            keys = self.keys[table, attr] = {pk: key for key, pk in entries}
            self.kept.pop((table, attr), None)
            held = type1.entries[table].keys()
            if kind == "fk" and keys.keys() != held:
                raise SchemaMismatch(f"index/type2/{name} does not hold every {table} record")
            if not keys.keys() <= held:
                raise SchemaMismatch(f"index/type2/{name} names {table} pk "
                                     f"{min(keys.keys() - held)}, which Type I lacks")


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


class TypeThreeRegistry:
    def __init__(self):
        self.columns: dict[str, list[DerivedColumn]] = {}

    def register(self, col: DerivedColumn):
        self.columns.setdefault(col.table, []).append(col)

    def for_table(self, table: str) -> list[DerivedColumn]:
        return self.columns.get(table, [])

    def find(self, table: str, kind: str, x: str, y: str | None = None) -> DerivedColumn | None:
        """table's derived column of kind over x (and y, either way round for a product)."""
        for col in self.for_table(table):
            if col.kind == kind and (col.x == x if kind == "square" else
                                     {col.x, col.y} == {x, y} if kind == "product" else
                                     kind == "quotient" and (col.x, col.y) == (x, y)):
                return col
        return None


def _bitmaps_text(table: str, entries: dict[int, str]) -> str:
    """The table's Type I entries as (table, pk, bitmap) lines."""
    return "".join(map("{}\t{}\t{}\n".format, repeat(table), entries, entries.values()))


def _read_bitmaps(type1: TypeOneIndex, text: str):
    """File each (table, pk, bitmap) line of text in order, as one
    set_many per table; empty lines are skipped. SchemaMismatch for a
    line of another width or a pk that is not an integer, and when two
    lines name one record."""
    try:
        flat = _fields(list(filter(None, text.splitlines())), 3)
        tables, pks, bitmaps = flat[0::3], list(map(int, flat[1::3])), flat[2::3]
    except ValueError:
        raise SchemaMismatch("index/type1.bitmap: a line that is not a table, an integer pk"
                             " and a bitmap") from None
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


def _parse_type2(text: str, key_type: type | None = None) -> list[tuple]:
    """Inverse of _type2_text: the (key, pk) entries of an .idx file in file
    order. A file of integer keys that _type2_text would write again byte
    for byte (_TYPE2_INTS) is read as columns; any other goes through
    json, empty lines skipped. With key_type (str or int), SchemaMismatch
    unless each key is of that type and each pk an int, checked once for
    the whole file where the columns read are all ints."""
    if _TYPE2_INTS.fullmatch(text):
        tokens = text.translate(_BRACKETS).split()
        entries = list(zip(map(int, tokens[0::2]), map(int, tokens[1::2])))
        if key_type is not str or not entries:
            return entries
    else:
        lines = [line for line in text.splitlines() if line]
        entries = [(key, pk) for key, pk in json.loads("[" + ",".join(lines) + "]")]
        if key_type is None or all(type(key) is key_type and type(pk) is int
                                   for key, pk in entries):
            return entries
    raise SchemaMismatch(f"a key that is not {'a string' if key_type is str else 'an integer'}"
                         " or a pk that is not an integer")
