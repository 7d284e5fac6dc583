"""Core sharing and reconstruction.

Every non-key, non-null value d becomes n-t+2 real shares. A polynomial f
of degree t-1 is interpolated through exactly t points:

    (HF1(K_d), d)              the data itself
    (HF1(K_s), HE1(d))         its inner signature
    (HF1(ID_i), HE2(pk, ID_i)) for each of the t-2 CSPs left out of the
                               storage group, their "pseudo shares"

and the stored shares are f evaluated at the storage-group abscissas.
HE1 and HE2 are linear, so each stored share is A_i*d + B_i*pk mod p,
where A_i and B_i fold the Lagrange basis weights of member i with the
HE1 scalar and the left-out CSPs' HE2 multipliers; they depend on the
storage group and the key material only and are computed once. Any
t CSPs can reconstruct: members of the storage group supply stored shares,
the others' pseudo shares are recomputed from the plaintext key. The
reconstruction is accepted only when f(HF1(K_s)) equals HE1(f(HF1(K_d))),
which any single corrupted share in the group breaks (up to a 1/p fluke).
Reading folds the same way (`linear_rows`): for a storage group, a
reconstruction group and a target abscissa, f there is a dot product of
the donors' stored shares plus one pk term for the pseudo shares, and the
signature test is a second dot product that must vanish, so reconstruction
and recovery run a column of values at a time (`solve_column`), and
share-space SUMs are checked through the same row (`solve_sums`).

Storage groups always have n-t+2 members and reconstruction groups t, so
at least two reconstruction members hold stored shares of every record.
A new record's storage group is drawn by systematic sampling with
probabilities proportional to size: provider i stores it with the exact
probability pi_i = min(1, c * w_i) of inclusion_probabilities, the split
cost.share_volume bills, from one keyed uniform, the seed MAC of its pk.
storage_bitmaps places a batch of them through one draw-to-group map
(systematic_groups) and one digest loop. Placement decides only where new
records go: a stored record keeps its bitmap.

What d is for a typed value is decided once, by typed_key: an int as the
whole number it is (never truncated), a real as value * 10^scale rounded
half to even, a date as its epoch day, a bool as 0/1, a string as
itself. The index server orders by that key
(its Type II indexes), a value's chunks are the key plus the bias or, for a
string, its UTF-8 bytes, and one encoding gives both: encode_value for a
cube cell, and encode_rows for a batch of rows, a column at a time, with
one kind dispatch per column and one range check per batch (an int
column's values must be whole numbers); typed_value and decode turn them
back into the plaintext. A number (int, real, date, bool, every cube measure)
is one chunk and its share one int, wherever it is stored or passed; a
string's chunks and shares are tuples, one per byte.
"""

from __future__ import annotations

from bisect import bisect_right
from datetime import date as _date, timedelta
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import ceil, floor
from operator import mul
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    InnerSignatureMismatch,
    MissingShare,
    NotEnoughAliveCsps,
    OutOfRange,
    SchemaMismatch,
)
from .field import lagrange_weights
from .keyed import Immutable, KeyMaterial

_EPOCH = _date(1970, 1, 1)

DEFAULT_BIAS = 1 << 40  # keeps negatives and small reals nonnegative pre-share

PLAIN_KINDS = ("key", "fk")
DATA_KINDS = ("int", "real", "string", "date", "bool")
# the kinds whose values add up: SUM, AVG and VAR take them, and so does a
# derived column
NUMBER_KINDS = ("int", "real", "bool")


class ReconstructionCounter:
    """Counts value reconstructions; tests assert on the homomorphic paths."""

    def __init__(self):
        self.count = 0

    def bump(self, k: int = 1):
        self.count += k

    def reset(self):
        self.count = 0


RECONSTRUCTIONS = ReconstructionCounter()


class Column(NamedTuple):
    name: str
    kind: str                 # key | fk | int | real | string | date | bool
    scale: int = 0            # decimal digits kept for reals
    fk_table: str | None = None


class _SchemaFields(NamedTuple):
    table: str
    columns: tuple[Column, ...]


class Schema(Immutable, _SchemaFields):
    """A table's columns, its key first. Construction checks them and
    derives the column lookups once per schema rather than per record,
    into the instance's own dict; like every record, a schema refuses
    attribute assignment."""

    def __new__(cls, table: str, columns: tuple[Column, ...]):
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaMismatch(f"duplicate column in {table}: {names}")
        if not columns or columns[0].kind != "key":
            raise SchemaMismatch(f"first column of {table} must be the key")
        self = super().__new__(cls, table, columns)
        vars(self).update(
            _by_name={c.name: c for c in columns},
            _data=tuple(c for c in columns if c.kind in DATA_KINDS),
            _plain=tuple(c for c in columns if c.kind in PLAIN_KINDS),
            _record_fields=tuple((c.name, c.kind == "fk") for c in columns[1:]),
            _strings=tuple(c.name for c in columns if c.kind == "string"),
        )
        return self

    @classmethod
    def _make(cls, iterable):   # so that _replace checks and derives too
        return cls(*iterable)

    @property
    def key(self) -> str:
        return self.columns[0].name

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaMismatch(f"no column {name} in {self.table}") from None

    def data_columns(self) -> tuple[Column, ...]:
        return self._data

    def plain_columns(self) -> tuple[Column, ...]:
        return self._plain

    def strings(self) -> tuple[str, ...]:
        """The names of the string columns, in schema order."""
        return self._strings

    def record_fields(self) -> tuple[tuple[str, bool], ...]:
        """(name, is fk) of every non-key column, in schema order: the
        field order of a stored record's bytes and text line."""
        return self._record_fields


def typed_key(value, kind: str, scale: int = 0):
    """The plaintext key that stands for a typed value, None for None: an
    int (or a key or fk) as the whole number it is (SchemaMismatch for one
    that is not, never a truncation), a real as value * 10^scale rounded
    (scaled_int), a date as its epoch day, a bool as 0/1, a string as
    itself. Type II indexes order by it, shares are made of it
    (encode_value) and typed_value inverts it."""
    if value is None:
        return None
    if kind in ("int", "key", "fk"):
        number = _whole(value)
        if number is None:
            raise SchemaMismatch(f"{kind} value {value!r} is not a whole number")
        return number
    if kind == "real":
        return scaled_int(value, scale)
    if kind == "date":
        return (value - _EPOCH).days
    if kind == "bool":
        return int(bool(value))
    if kind == "string":
        return str(value)
    raise SchemaMismatch(f"no typed key for kind {kind!r}")


def typed_value(key, kind: str, scale: int = 0):
    """Inverse of typed_key: the plaintext value of a key."""
    if key is None:
        return None
    if kind == "real":
        return Fraction(key, 10**scale)
    if kind == "date":
        return _EPOCH + timedelta(days=key)
    if kind == "bool":
        return bool(key)
    return key


_BOOL_WORDS = {"1": True, "true": True, "t": True, "yes": True,
               "0": False, "false": False, "f": False, "no": False}


def text_value(text: str, kind: str):
    """The typed value text reads as, the one reading of CSV cells and
    query literals: a number exactly (an int when whole, else a
    Fraction), a date in ISO form, a bool from one of _BOOL_WORDS in any
    case, a string as itself. ValueError when it reads as none."""
    if kind == "string":
        return text
    if kind == "date":
        return _date.fromisoformat(text)
    if kind == "bool":
        word = _BOOL_WORDS.get(text.strip().lower())
        if word is None:
            raise ValueError(f"{text!r} is not a bool")
        return word
    number = Fraction(text)
    return number.numerator if number.denominator == 1 else number


def encode_value(value, kind: str, *, scale: int = 0, bias: int = 0, p: int) -> tuple:
    """(order key, chunks) of a typed plaintext value, (None, None) for
    None, from one encoding: the key is its typed_key, the chunks that key
    offset by the bias, so negatives stay in [0, p), as one int, or for a
    string a tuple of one chunk per UTF-8 byte."""
    key = typed_key(value, kind, scale)
    if key is None:
        return None, None
    if kind == "string":
        raw = key.encode("utf-8")
        for b in raw:
            if b >= p:
                raise OutOfRange(f"byte {b} of {value!r} >= p={p}")
        return key, tuple(raw)
    chunk = key + bias
    if not 0 <= chunk < p:
        raise OutOfRange(f"{kind} value {value!r} encodes to {chunk}, outside [0, {p})")
    return key, chunk


def encode_chunks(value, kind: str, *, scale: int = 0, bias: int = 0, p: int):
    """The field-element chunks of a typed plaintext value (encode_value):
    an int, a tuple for a string, None for None."""
    return encode_value(value, kind, scale=scale, bias=bias, p=p)[1]


def scaled_int(value, scale: int) -> int:
    """round(value * 10^scale) to the nearest integer, ties to even, taken
    exactly: floats through their shortest decimal repr, everything else
    (int, Fraction, Decimal, numeric str) through Fraction."""
    if isinstance(value, float):
        value = Decimal(str(value))
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return round_half_even(value.numerator * 10**scale, value.denominator)


def decode(chunks, kind: str, *, scale: int = 0, bias: int = 0):
    """Inverse of encode_chunks for values stored exactly (no modular wrap)."""
    if chunks is None:
        return None
    if kind == "string":
        return bytes(chunks).decode("utf-8")
    return typed_value(chunks - bias, kind, scale)


def _bitmap(members, n: int) -> str:
    return "".join("1" if i in members else "0" for i in range(1, n + 1))


class StorageGroup(NamedTuple):
    sg: frozenset[int]
    ug: frozenset[int]
    n: int

    @property
    def bitmap(self) -> str:
        return _bitmap(self.sg, self.n)


@lru_cache(maxsize=256)
def group_from_bitmap(bitmap: str) -> StorageGroup:
    sg = frozenset(i for i, bit in enumerate(bitmap, start=1) if bit == "1")
    ug = frozenset(i for i, bit in enumerate(bitmap, start=1) if bit == "0")
    return StorageGroup(sg, ug, len(bitmap))


def storage_group_size(alive: Collection[int], km: KeyMaterial) -> int:
    """n-t+2, the size of every storage group: NotEnoughAliveCsps when
    fewer providers than that are alive."""
    k = km.n - km.t + 2
    if len(alive) < k:
        raise NotEnoughAliveCsps(f"need {k} alive CSPs, have {len(alive)}")
    return k


def _exact(x) -> Fraction:
    """x as an exact Fraction: an int or Fraction as it is, anything else
    (a float through its shortest decimal repr, a Decimal, numeric text)
    through its text."""
    return Fraction(x) if isinstance(x, (int, Fraction)) else Fraction(str(x))


def inclusion_probabilities(weights: Sequence, members: Iterable[int],
                            k: int) -> dict[int, Fraction]:
    """pi_i, the exact share of records whose storage group of k holds
    provider i, for each of members (1-based providers, weights[i - 1]
    each, taken exactly by _exact): min(1, c * w_i) over the members of
    positive weight, with c such that the pi_i sum to k, found by capping
    at 1 every member whose c * w_i reaches 1 and solving again for the
    rest. When at most k members have a positive weight, each of them
    and, by ascending index, the zero-weight members that fill the group
    up to k have pi_i = 1, and the others 0. Placement draws by these
    (systematic_groups) and cost.share_volume bills by them."""
    exact = {i: _exact(weights[i - 1]) for i in sorted(set(members))}
    rest = [i for i, w in exact.items() if w > 0]
    pi = dict.fromkeys(exact, Fraction(0))
    if len(rest) <= k:
        chosen = rest + [i for i, w in exact.items() if w <= 0][:k - len(rest)]
        pi.update(dict.fromkeys(chosen, Fraction(1)))
        return pi
    need = k
    while True:
        total = sum(exact[i] for i in rest)
        capped = [i for i in rest if need * exact[i] >= total]   # c * w_i >= 1
        if not capped:
            break
        pi.update(dict.fromkeys(capped, Fraction(1)))
        rest = [i for i in rest if pi[i] == 0]
        need -= len(capped)
    pi.update({i: need * exact[i] / total for i in rest})
    return pi


def systematic_groups(weights: Sequence, alive: Iterable[int],
                      km: KeyMaterial) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """The storage group of a record as a function of its 64-bit draw v:
    (cuts, bitmaps), the group of v being bitmaps[bisect_right(cuts, v)].

    Randomized systematic sampling (Hartley and Rao; Tille, Sampling
    Algorithms): the alive providers of positive pi_i
    (inclusion_probabilities) are laid end to end on [0, k) in one keyed
    order, ascending seed MAC of sysorder|i, provider i covering an
    interval of length pi_i, and a record whose u is v / 2^64 is stored
    by the k providers whose intervals hold u, u + 1, ..., u + k - 1.
    Every pi_i is at most 1, so these are k distinct providers, and
    provider i stores a record with probability exactly pi_i. The group
    changes only where u passes the fractional part b of an interval's
    end, so there are at most as many groups as placed providers; cuts
    holds ceil(b * 2^64) of each such b > 0, ascending. NotEnoughAliveCsps
    when fewer than k providers are alive. The exact arithmetic is
    memoized by the weights and the keyed order of the alive providers.
    """
    alive = sorted(set(alive))
    k = storage_group_size(alive, km)
    order = [i for _, i in sorted(zip(km.seed_macs([b"sysorder|%d" % i for i in alive]), alive))]
    return _systematic_groups(tuple(weights), tuple(order), k, km.n)


@lru_cache(maxsize=256)
def _systematic_groups(weights: tuple, order: tuple[int, ...], k: int,
                       n: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    pi = inclusion_probabilities(weights, order, k)
    starts, ends, end, placed = [], [], Fraction(0), [i for i in order if pi[i]]
    for i in placed:
        starts.append(end)
        end += pi[i]
        ends.append(end)
    breaks = sorted({e - floor(e) for e in ends})   # 0 among them, as the last end is k
    cuts = tuple(ceil(b * (1 << 64)) for b in breaks[1:])
    # at u = b the points u + r lie in [b, b + k): i holds one when an integer lies in [lo-b, hi-b)
    bitmaps = tuple(_bitmap([i for i, lo, hi in zip(placed, starts, ends)
                             if ceil(lo - b) < hi - b], n) for b in breaks)
    return cuts, bitmaps


def storage_bitmaps(pks: Sequence[int], weights: Sequence, alive: Iterable[int],
                    km: KeyMaterial) -> list[str]:
    """The bitmap of the n-t+2 CSPs that will store each record keyed
    pks, in order: systematic_groups' group of the draw v, the first 8
    bytes of the seed MAC of sysplace|pk read big-endian, so the choice
    is reproducible from the config alone. The map is built once per
    call, and per pk there is one MAC, through one digest loop, and one
    bisect. Failed CSPs are never selected, and provider i stores a
    record with probability pi_i (inclusion_probabilities); when at most
    n-t+2 weighted CSPs are alive, every pk gets the same group, filled
    in by ascending index from the zero-weight ones, and no MAC is taken.
    """
    cuts, bitmaps = systematic_groups(weights, alive, km)
    if not cuts:
        return [bitmaps[0]] * len(pks)
    from_bytes = int.from_bytes
    return [bitmaps[bisect_right(cuts, from_bytes(mac[:8], "big"))]
            for mac in km.seed_macs([b"sysplace|%d" % pk for pk in pks])]


def select_storage_group(
    pk: int,
    weights: Sequence[float],
    alive: Iterable[int],
    km: KeyMaterial,
) -> StorageGroup:
    """The storage group storage_bitmaps picks for one record."""
    return group_from_bitmap(storage_bitmaps([pk], weights, alive, km)[0])


@lru_cache(maxsize=1024)
def pinned_coefficients(basis: tuple, extra_xs: tuple[int, ...], members: Sequence[int]
                        ) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(i, A_i, L_i) per provider i of members: at i's abscissa, the
    polynomial through (K_d, d), (K_s, HE1(d)) and ordinates e_j at
    extra_xs (a stored share's left-out CSPs, a cube cell's fillers) is
    (A_i*d + sum(L_ij * e_j)) % p. basis is KeyMaterial.share_basis."""
    p, x_kd, x_ks, he1_scalar, per_csp = basis
    xs = (x_kd, x_ks, *extra_xs)
    out = []
    for i in members:
        w = lagrange_weights(xs, per_csp[i - 1][0], p)
        out.append((i, (w[0] + w[1] * he1_scalar) % p, w[2:]))
    return tuple(out)


@lru_cache(maxsize=1024)
def _share_coefficients(basis: tuple, sg: frozenset[int],
                        ug: frozenset[int]) -> tuple[tuple[int, int, int], ...]:
    p, per_csp = basis[0], basis[4]
    ug = sorted(ug)
    multipliers = [per_csp[u - 1][1] for u in ug]
    pinned = pinned_coefficients(basis, tuple(per_csp[u - 1][0] for u in ug), tuple(sorted(sg)))
    return tuple((i, a, sum(map(mul, w, multipliers)) % p) for i, a, w in pinned)


def share_coefficients(group: StorageGroup, km: KeyMaterial) -> tuple[tuple[int, int, int], ...]:
    """(i, A_i, B_i) for each storage-group member i, ascending, such that
    member i's share of d in the record keyed pk is (A_i*d + B_i*pk) % p.

    With l_j the Lagrange weights of the sharing abscissas (K_d, K_s, the
    left-out CSPs u) at member i's abscissa: A_i = l_Kd + l_Ks * HE1
    scalar, B_i = sum of l_u * m_u over the left-out CSPs' HE2
    multipliers. Memoized by value (the key material's share basis and
    the group's member sets), so equal key materials share entries.
    """
    return _share_coefficients(km.share_basis, group.sg, group.ug)


def share_value(d: int, pk: int, group: StorageGroup, km: KeyMaterial) -> dict[int, int]:
    """Produce the stored shares of one field element."""
    p = km.p
    return {i: (a * d + b * pk) % p for i, a, b in share_coefficients(group, km)}


def whole_key(value, table: str, name: str) -> int:
    """A value as its int when it is a whole number of any type (an int,
    a bool, a whole float, Fraction or Decimal, numeric text): the key of
    an int column's value, and of a key or fk within whole_number's
    range. SchemaMismatch naming table.name when it is missing (None) or
    not a whole number, never a truncation."""
    number = _whole(value)
    if number is None:
        raise SchemaMismatch(f"{table}.{name} must be a whole number, got {value!r}")
    return number


def _whole(value) -> int | None:
    """value as an int when it is a whole number of any type, else None."""
    if type(value) is int:
        return value
    try:
        number = Fraction(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number.numerator if number.denominator == 1 else None


def whole_number(value, table: str, name: str) -> int:
    """A key or fk value as an int (whole_key), OutOfRange unless it fits
    the 8 unsigned bytes of a signature input."""
    value = whole_key(value, table, name)
    if not 0 <= value < 1 << 64:
        raise OutOfRange(f"{table}.{name} must lie in [0, 2^64), got {value}")
    return value


def round_half_even(num: int, den: int) -> int:
    """num/den, den > 0, rounded to the nearest integer, ties to even, as
    Fraction.__round__ rounds it; num/den need not be in lowest terms."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


def _int_keys(rows, name: str, scale: int, table: str) -> list:
    return [v if type(v) is int or v is None else whole_key(v, table, name)
            for row in rows for v in [row.get(name)]]


def _real_keys(rows, name: str, scale: int, table: str) -> list:
    """scaled_int of each value, a Fraction's and an int's taken here."""
    m, out = 10**scale, []
    for row in rows:
        v = row.get(name)
        if type(v) is Fraction:
            v = round_half_even(v.numerator * m, v.denominator)
        elif type(v) is int:
            v *= m
        elif v is not None:
            v = scaled_int(v, scale)
        out.append(v)
    return out


# the typed_key of a column of rows, one function per kind; an int
# column's values must be whole numbers
_KEYS = {
    "int": _int_keys,
    "real": _real_keys,
    "date": lambda rows, name, *_: [None if v is None else (v - _EPOCH).days
                                    for row in rows for v in [row.get(name)]],
    "bool": lambda rows, name, *_: [None if v is None else 1 if v else 0
                                    for row in rows for v in [row.get(name)]],
    "string": lambda rows, name, *_: [None if v is None else str(v)
                                      for row in rows for v in [row.get(name)]],
}


def _number_chunks(numbers, rows, exact, bias: int, p: int) -> list[list]:
    """The chunks (key plus the bias) of each number column (kind, name,
    keys), all made and range-checked at once: one min and one max over
    every chunk of the batch; OutOfRange for the first value outside
    [0, p), column by column, naming the row's value or, for a derived
    column, its exact value (a Fraction of its pair in exact)."""
    n = len(rows)
    flat = [None if k is None else k + bias for _, _, keys in numbers for k in keys]
    present = flat if None not in flat else [c for c in flat if c is not None]
    if present and (min(present) < 0 or max(present) >= p):
        for kind, name, keys in numbers:
            for j, k in enumerate(keys):
                if k is not None and not 0 <= k + bias < p:
                    v = Fraction(*exact[name][j]) if name in exact else rows[j].get(name)
                    raise OutOfRange(f"{kind} value {v!r} encodes to {k + bias}, outside [0, {p})")
    return [flat[i * n:(i + 1) * n] for i in range(len(numbers))]


def encode_rows(schema: Schema, rows: Sequence[dict], derived: Mapping[str, list],
                exact: Mapping[str, list], bias: int, p: int) -> tuple[list, list]:
    """The non-key fields of rows encoded a column at a time, one column
    per record field (record_fields order) aligned with rows: as the
    providers store them before sharing (an fk as its whole_number, a
    number's chunk as an int, a string's chunks as a tuple, None for
    NULL) and as the index server orders them (the fk's int, the
    typed_key of a number, date, bool or string, None for NULL): the
    chunks and keys encode_value gives each value, except that an int
    column's value must be a whole number (whole_key). derived holds the
    keys of the derived fields (an int, or at scale 0 a Fraction for a
    value that is not whole), which stand in for the rows' own values,
    and exact their exact values as (numerator, denominator) pairs,
    which a range error names.

    Each check runs over every row, in this order: SchemaMismatch for a
    column the schema lacks; each fk's whole_number; then each field's
    keys in schema order; and OutOfRange for a number whose chunk lies
    outside [0, p), checked as one min and max over the whole batch. A
    one-row batch raises the error record by record encoding would: a
    range error of an earlier field before a later field's key error.
    """
    table = schema.table
    names = schema._by_name.keys()
    for row in rows:
        if not row.keys() <= names:
            raise SchemaMismatch(f"unknown columns {sorted(row.keys() - names)} for {table}")
    fks = {name: [v if type(v) is int and 0 <= v < 1 << 64 else whole_number(v, table, name)
                  for row in rows for v in [row.get(name)]]
           for name, is_fk in schema.record_fields() if is_fk}
    keys, values, numbers = [], [], []
    try:
        for name, kind, scale, _ in schema.columns[1:]:
            if kind == "fk":
                column = chunks = fks[name]
            else:
                column = derived.get(name)
                if column is None:
                    to_keys = _KEYS.get(kind)
                    column = (to_keys(rows, name, scale, table) if to_keys
                              else [typed_key(row.get(name), kind, scale) for row in rows])
                elif kind == "int":   # a scale-0 derived value must be whole too
                    column = [v if type(v) is int or v is None else whole_key(v, table, name)
                              for v in column]
                chunks = None
                if kind == "string":
                    chunks = [None if k is None else tuple(k.encode("utf-8")) for k in column]
                    if p <= 255:
                        for k, c in zip(column, chunks):
                            for byte in c or ():
                                if byte >= p:
                                    raise OutOfRange(f"byte {byte} of {k!r} >= p={p}")
                else:
                    numbers.append((kind, name, column))
            keys.append(column)
            values.append(chunks)
    except Exception:
        _number_chunks(numbers, rows, exact, bias, p)   # an earlier field's range comes first
        raise
    made = iter(_number_chunks(numbers, rows, exact, bias, p))
    return [next(made) if chunks is None else chunks for chunks in values], keys


def positions(seq, item) -> list[int]:
    """Indices of item in the sequence seq, found by C-level scans."""
    out, k = [], -1
    for _ in range(seq.count(item)):
        k = seq.index(item, k + 1)
        out.append(k)
    return out


def share_columns(schema: Schema, pks: Sequence[int], bitmaps: Sequence[str], values,
                  km: KeyMaterial) -> dict[int, tuple[list[int], list[list]]]:
    """Share a batch of records column-wise.

    values holds, per record field, a column aligned with pks as
    encode_rows gives it; bitmaps the records' storage groups. Returns,
    per provider (ascending) that stores any of them, the pks it stores in
    order and its value columns: an fk as is, a number's chunk c as
    (A_i*c + B_i*pk) % p from share_coefficients, a string's chunks as a
    tuple of those, None for NULL. A provider's A_i and B_i*pk % p are
    laid out as columns beside its records, and each numeric column is
    one pass over them; a one-record batch, such as an in-place update,
    is shared straight from its storage group's coefficients.
    """
    p = km.p
    kinds = [col.kind for col in schema.columns[1:]]
    if len(pks) == 1:   # a one-record write: no columns to lay out
        pk, row, out = pks[0], [column[0] for column in values], {}
        for i, a, b in share_coefficients(group_from_bitmap(bitmaps[0]), km):
            bpk = b * pk % p
            out[i] = [pk], [[c if kind == "fk" or c is None
                             else tuple([(a * x + bpk) % p for x in c]) if kind == "string"
                             else (a * c + bpk) % p] for kind, c in zip(kinds, row)]
        return out
    members: dict[int, dict[str, tuple[int, int]]] = {}   # i -> bitmap -> (A_i, B_i)
    for bitmap in dict.fromkeys(bitmaps):
        for i, a, b in share_coefficients(group_from_bitmap(bitmap), km):
            members.setdefault(i, {})[bitmap] = a, b
    out = {}
    for i in sorted(members):
        mine = members[i]
        mask = list(map(mine.__contains__, bitmaps))
        my_pks = list(compress(pks, mask))
        my_values = [list(compress(column, mask)) for column in values]
        coefs = list(map(mine.__getitem__, compress(bitmaps, mask)))
        a_col = [a for a, _ in coefs]
        bpk_col = [b * pk % p for (_, b), pk in zip(coefs, my_pks)]
        columns = []
        for kind, column in zip(kinds, my_values):
            if kind == "fk":
                columns.append(column)
            elif kind == "string":
                columns.append([None if c is None else tuple([(a * x + bpk) % p for x in c])
                                for a, c, bpk in zip(a_col, column, bpk_col)])
            else:
                columns.append([None if c is None else (a * c + bpk) % p
                                for a, c, bpk in zip(a_col, column, bpk_col)])
        out[i] = my_pks, columns
    return out


class LinearRows(NamedTuple):
    """A reconstruction group's view of a record polynomial at one target
    abscissa: f(x) = sum(weights[j] * y_j) + pk_term * pk and the check
    sum(check[j] * y_j) + check_pk * pk, mod p, over the stored shares y_j
    of the donors. With l the Lagrange weights of rg's abscissas, the
    check row is c = l(K_s) - HE1 scalar * l(K_d): it is 0 exactly when
    the signature point s = f(HF1(K_s)) equals HE1(d), d = f(HF1(K_d))."""
    donors: tuple[int, ...]    # rg members in the storage group, ascending
    weights: tuple[int, ...]   # l_j(x), aligned with donors
    pk_term: int               # sum of l_u(x) * m_u over the pseudo-share members u
    check: tuple[int, ...]     # c_j, aligned with donors
    check_pk: int              # sum of c_u * m_u over the pseudo-share members u


@lru_cache(maxsize=1024)
def _linear_rows(basis: tuple, sg: frozenset[int], rg: tuple[int, ...],
                 x: int) -> LinearRows:
    p, x_kd, x_ks, he1_scalar, per_csp = basis
    xs = tuple(per_csp[i - 1][0] for i in rg)
    donors, weights, check = [], [], []
    pk_term = check_pk = 0
    for i, w, l_d, l_s in zip(rg, lagrange_weights(xs, x, p), lagrange_weights(xs, x_kd, p),
                              lagrange_weights(xs, x_ks, p)):
        c = (l_s - he1_scalar * l_d) % p
        if i in sg:
            donors.append(i)
            weights.append(w)
            check.append(c)
        else:
            m = per_csp[i - 1][1]
            pk_term += w * m
            check_pk += c * m
    return LinearRows(tuple(donors), tuple(weights), pk_term % p, tuple(check), check_pk % p)


def linear_rows(sg: frozenset[int] | set[int], rg: Iterable[int], x: int,
                km: KeyMaterial) -> LinearRows:
    """The record polynomial of a storage group sg as the t-member
    reconstruction group rg sees it (stored shares from rg ∩ sg, pseudo
    shares HE2(pk, ID_u) from the rest), folded into constants at the
    abscissa x; MissingShare unless rg has t members.

    The pseudo shares are linear in pk, so they fold into one pk term.
    Memoized by value (the key material's share basis, the member sets
    and x), like share_coefficients.
    """
    rg = tuple(sorted(set(rg)))
    if len(rg) != km.t:
        raise MissingShare(f"reconstruction group must have t={km.t} members, got {list(rg)}")
    return _linear_rows(km.share_basis, frozenset(sg), rg, x)


def _mismatch(sg, rg, ys: Sequence[int], pk: int, km: KeyMaterial,
              what: str) -> InnerSignatureMismatch:
    """The error for donor shares ys that fail the check row, naming the
    data and signature points they give."""
    d, s = ((sum(map(mul, rows.weights, ys)) + rows.pk_term * pk) % km.p
            for rows in (linear_rows(sg, rg, x, km) for x in (km.x_kd, km.x_ks)))
    return InnerSignatureMismatch(f"{what}: signature point {s} != HE1({d})")


def _dot_columns(coefs: Sequence[int], columns, pk_coef: int, pks: Sequence[int],
                 p: int) -> list[int]:
    """(sum(coefs[j] * columns[j][k]) + pk_coef * pks[k]) % p for each k,
    one pass over each column (comprehensions: with products of two
    field elements they measured faster than chained maps)."""
    acc = [pk_coef * pk for pk in pks]
    for c, column in zip(coefs, columns):
        acc = [s + c * y for s, y in zip(acc, column)]
    return [s % p for s in acc]


def solve_column(rows: LinearRows, pks: Sequence[int], columns, sg, rg, km: KeyMaterial,
                 table: str = "", refusal: str = "",
                 disagreement: type[Exception] = MissingShare, string: bool = False) -> list:
    """Per pk, its record polynomial at the rows' target, from the donors'
    columns (each aligned with pks, in rows.donors order, holding for a
    number its share as an int, for a string (string set) its chunks as
    a tuple, None for NULL): an int, or a tuple of chunks for a string;
    None where every donor marks NULL.

    The donors must agree on each value's NULL mark and a string's chunk
    count (the disagreement error naming table otherwise: MissingShare by
    default, InnerSignatureMismatch where a read should try another
    reconstruction group), and every chunk must pass the check row
    (InnerSignatureMismatch otherwise, its message naming the pk followed
    by refusal) before its target value is taken: one dot product each.
    The first pk in order that fails decides the error. A numeric column
    is checked and solved a whole column at a time (_dot_columns), its
    NULLs zeroed, then restored; a string column a value at a time.
    """
    if string:
        return _solve_strings(rows, pks, columns, sg, rg, km, table, refusal, disagreement)
    p = km.p
    marks = [positions(column, None) for column in columns]
    agree = marks.count(marks[0]) == len(marks)
    nulls = marks[0] if agree else sorted(set().union(*marks))
    checked = pks
    if nulls:
        columns = [list(column) for column in columns]
        checked = list(pks)
        for k in nulls:
            checked[k] = 0
            for column in columns:
                column[k] = 0
    checks = _dot_columns(rows.check, columns, rows.check_pk, checked, p)
    failed = next(compress(range(len(checks)), checks), None)   # the first nonzero check
    if not agree:
        split = next(k for k in nulls if any(k not in m for m in marks))
        if failed is None or split < failed:
            raise disagreement(f"pk {pks[split]} of {table}: null marks disagree across CSPs")
    if failed is not None:
        pk = pks[failed]
        raise _mismatch(sg, rg, [column[failed] for column in columns], pk, km,
                        f"pk {pk}{refusal}")
    out = _dot_columns(rows.weights, columns, rows.pk_term, pks, p)
    for k in nulls:
        out[k] = None
    return out


def _solve_strings(rows: LinearRows, pks: Sequence[int], columns, sg, rg, km: KeyMaterial,
                   table: str, refusal: str, disagreement: type[Exception]) -> list:
    """solve_column of a string column, a value at a time."""
    p = km.p
    weights, check = rows.weights, rows.check
    out = []
    for pk, held in zip(pks, zip(*columns)):
        if None in held:
            if any(c is not None for c in held):
                raise disagreement(f"pk {pk} of {table}: null marks disagree across CSPs")
            out.append(None)
            continue
        count = len(held[0])
        if any(len(c) != count for c in held):
            raise disagreement(f"pk {pk} of {table}: chunk counts disagree across CSPs")
        pk_term, check_pk = rows.pk_term * pk, rows.check_pk * pk
        chunks = []
        for ys in zip(*held):
            if (sum(map(mul, check, ys)) + check_pk) % p:
                raise _mismatch(sg, rg, ys, pk, km, f"pk {pk}{refusal}")
            chunks.append((sum(map(mul, weights, ys)) + pk_term) % p)
        out.append(tuple(chunks))
    return out


def solve_sums(rg: Sequence[int], sums, km: KeyMaterial, what: str) -> list[int]:
    """d = f(HF1(K_d)) of each summed polynomial from its shares at rg
    (ascending), through linear_rows(rg, rg, K_d), which has no pk term;
    InnerSignatureMismatch naming what unless its check row vanishes."""
    rows = linear_rows(rg, rg, km.x_kd, km)
    p, weights, check = km.p, rows.weights, rows.check
    out = []
    for ys in sums:
        if sum(map(mul, check, ys)) % p:
            raise _mismatch(rg, rg, ys, 0, km, what)
        out.append(sum(map(mul, weights, ys)) % p)
    return out


def _donor_shares(rows: LinearRows, fetched: Mapping[int, int]) -> list[int]:
    try:
        return [fetched[i] for i in rows.donors]
    except KeyError as exc:
        raise MissingShare(
            f"CSP {exc.args[0]} is in the storage group but sent no share"
        ) from None


def reconstruct_value(
    pk: int,
    sg: frozenset[int] | set[int],
    fetched: Mapping[int, int],
    rg: Iterable[int],
    km: KeyMaterial,
) -> int:
    """Rebuild d from t shares (stored or pseudo) and verify its inner signature.

    Raises InnerSignatureMismatch when the interpolated signature point
    disagrees with HE1 of the interpolated data point; the caller is
    expected to retry with a different reconstruction group.
    """
    RECONSTRUCTIONS.bump()
    rows = linear_rows(sg, rg, km.x_kd, km)
    ys = _donor_shares(rows, fetched)
    return solve_column(rows, (pk,), [[y] for y in ys], sg, rg, km)[0]


def recover_share(
    pk: int,
    sg: frozenset[int] | set[int],
    fetched: Mapping[int, int],
    rg: Iterable[int],
    target: int,
    km: KeyMaterial,
) -> int:
    """Re-evaluate the record polynomial at a lost CSP's abscissa.

    The donors' shares must pass the inner-signature check row; the share
    the target CSP should hold is then one dot product with them.
    """
    rows = linear_rows(sg, rg, km.x_id(target), km)
    ys = _donor_shares(rows, fetched)
    return solve_column(rows, (pk,), [[y] for y in ys], sg, rg, km,
                        refusal=": refusing to recover")[0]


class ShareBundle(NamedTuple):
    pk: int
    group: StorageGroup
    plain: dict[str, int]                                 # fk columns, stored as-is
    shares: dict[str, dict[int, int | tuple[int, ...]] | None]  # attr -> csp -> share, None=null

    @property
    def bitmap(self) -> str:
        return self.group.bitmap


def share_record(
    record: Mapping[str, object],
    schema: Schema,
    weights: Sequence[float],
    alive: Iterable[int],
    km: KeyMaterial,
    bias: int = DEFAULT_BIAS,
    group: StorageGroup | None = None,
) -> ShareBundle:
    """Share one record: every data column chunk goes through share_value
    with the same storage group; keys stay plaintext; nulls are not shared.
    A key, an fk or an int value that is not a whole number raises
    SchemaMismatch (whole_key, typed_key) rather than being truncated.

    Pass group to pin the storage group (updates keep a record where it
    already lives; recovery re-shares in place).
    """
    unknown = set(record) - schema._by_name.keys()
    if unknown:
        raise SchemaMismatch(f"unknown columns {sorted(unknown)} for {schema.table}")
    pk = whole_key(record[schema.key], schema.table, schema.key)
    if group is None:
        group = select_storage_group(pk, weights, alive, km)
    plain = {c.name: whole_key(record[c.name], schema.table, c.name)
             for c in schema.plain_columns() if c.name != schema.key}
    p = km.p
    # share_value per chunk, with B_i*pk folded once per record
    terms = [(i, a, b * pk % p) for i, a, b in share_coefficients(group, km)]
    shares: dict[str, dict[int, int | tuple[int, ...]] | None] = {}
    for col in schema.data_columns():
        chunks = encode_chunks(record.get(col.name), col.kind, scale=col.scale, bias=bias, p=p)
        if chunks is None:
            shares[col.name] = None
        elif col.kind == "string":
            shares[col.name] = {i: tuple([(a * c + bpk) % p for c in chunks])
                                for i, a, bpk in terms}
        else:
            shares[col.name] = {i: (a * chunks + bpk) % p for i, a, bpk in terms}
    return ShareBundle(pk=pk, group=group, plain=plain, shares=shares)
