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

Storage groups always have n-t+2 members and reconstruction groups t, so
at least two reconstruction members hold stored shares of every record.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from datetime import date as _date
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import (
    InnerSignatureMismatch,
    MissingShare,
    NotEnoughAliveCsps,
    OutOfRange,
    SchemaMismatch,
)
from .field import interpolate_at, lagrange_weights
from .keyed import KeyMaterial

_EPOCH = _date(1970, 1, 1)

DEFAULT_BIAS = 1 << 40  # keeps negatives and small reals nonnegative pre-share

PLAIN_KINDS = ("key", "fk")
DATA_KINDS = ("int", "real", "string", "date", "bool")


class ReconstructionCounter:
    """Counts value reconstructions; tests assert on the homomorphic paths."""

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1

    def reset(self):
        self.count = 0


RECONSTRUCTIONS = ReconstructionCounter()


@dataclass(frozen=True)
class Column:
    name: str
    kind: str                 # key | fk | int | real | string | date | bool
    scale: int = 0            # decimal digits kept for reals
    fk_table: str | None = None


@dataclass(frozen=True)
class Schema:
    table: str
    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaMismatch(f"duplicate column in {self.table}: {names}")
        if not self.columns or self.columns[0].kind != "key":
            raise SchemaMismatch(f"first column of {self.table} must be the key")
        # column lookups, computed once per schema rather than per record
        derived = {
            "_by_name": {c.name: c for c in self.columns},
            "_data": tuple(c for c in self.columns if c.kind in DATA_KINDS),
            "_plain": tuple(c for c in self.columns if c.kind in PLAIN_KINDS),
            "_fields": tuple((c.name, c.kind == "fk") for c in self.columns[1:]),
        }
        for attr, value in derived.items():
            object.__setattr__(self, attr, value)

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

    def record_fields(self) -> tuple[tuple[str, bool], ...]:
        """(name, is fk) of every non-key column, in schema order: the
        field order of a stored record's bytes and text line."""
        return self._fields


@dataclass(frozen=True)
class EncodedValue:
    kind: str
    chunks: tuple[int, ...]   # empty for null
    scale: int = 0

    @property
    def is_null(self) -> bool:
        return self.kind == "null"


def encode(value, kind: str, *, scale: int = 0, bias: int = 0, p: int) -> EncodedValue:
    """Turn a typed plaintext value into field-element chunks.

    Integers, reals (scaled by 10^scale), dates (epoch days) and booleans
    land in one chunk, offset by the bias so negatives stay in [0, p).
    Strings become one chunk per UTF-8 byte. None encodes to zero chunks
    and is never shared.
    """
    if value is None:
        return EncodedValue("null", (), scale)
    if kind == "int":
        chunk = int(value) + bias
    elif kind == "bool":
        chunk = int(bool(value)) + bias
    elif kind == "date":
        chunk = (value - _EPOCH).days + bias
    elif kind == "real":
        chunk = scaled_int(value, scale) + bias
    elif kind == "string":
        raw = value.encode("utf-8")
        for b in raw:
            if b >= p:
                raise OutOfRange(f"byte {b} of {value!r} >= p={p}")
        return EncodedValue("string", tuple(raw), scale)
    else:
        raise SchemaMismatch(f"cannot encode kind {kind!r}")
    if not 0 <= chunk < p:
        raise OutOfRange(f"{kind} value {value!r} encodes to {chunk}, outside [0, {p})")
    return EncodedValue(kind, (chunk,), scale)


def scaled_int(value, scale: int) -> int:
    """round(value * 10^scale) to the nearest integer, ties to even, taken
    exactly: floats through their shortest decimal repr, everything else
    (int, Fraction, Decimal, numeric str) through Fraction."""
    if isinstance(value, float):
        value = Decimal(str(value))
    if not isinstance(value, Fraction):
        value = Fraction(value)
    den = value.denominator
    q, r = divmod(value.numerator * 10**scale, den)
    # Fraction.__round__: halves go to the even neighbour
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


def decode(chunks: Sequence[int], kind: str, *, scale: int = 0, bias: int = 0):
    """Inverse of encode for values stored exactly (no modular wrap)."""
    if not chunks:
        return None
    if kind == "string":
        return bytes(chunks).decode("utf-8")
    raw = chunks[0] - bias
    if kind == "int":
        return raw
    if kind == "bool":
        return bool(raw)
    if kind == "date":
        return _date.fromordinal(_EPOCH.toordinal() + raw)
    if kind == "real":
        return Fraction(raw, 10**scale)
    raise SchemaMismatch(f"cannot decode kind {kind!r}")


@dataclass(frozen=True)
class StorageGroup:
    sg: frozenset[int]
    ug: frozenset[int]
    n: int

    @property
    def bitmap(self) -> str:
        return "".join("1" if i in self.sg else "0" for i in range(1, self.n + 1))


def group_from_bitmap(bitmap: str) -> StorageGroup:
    sg = frozenset(i for i, bit in enumerate(bitmap, start=1) if bit == "1")
    ug = frozenset(i for i, bit in enumerate(bitmap, start=1) if bit == "0")
    return StorageGroup(sg, ug, len(bitmap))


def select_storage_group(
    pk: int,
    weights: Sequence[float],
    alive: Iterable[int],
    km: KeyMaterial,
) -> StorageGroup:
    """Pick the n-t+2 CSPs that will store this record's shares.

    Weighted sampling without replacement, keyed by a hash of the primary
    key, so the choice is reproducible from the config alone. Failed CSPs
    are never selected; zero-weight CSPs are excluded unless too few
    weighted CSPs are alive, in which case they fill in by ascending index.
    """
    k = km.n - km.t + 2
    alive = set(alive)
    if len(alive) < k:
        raise NotEnoughAliveCsps(f"need {k} alive CSPs, have {len(alive)}")

    def u01(i: int) -> float:
        digest = hmac.digest(km.seed, f"place|{pk}|{i}".encode(), "sha256")
        return (int.from_bytes(digest[:8], "big") + 0.5) / (1 << 64)

    weighted = [i for i in sorted(alive) if weights[i - 1] > 0]
    # Efraimidis-Spirakis keys: top-k of u^(1/w) is a weighted draw
    scored = sorted(weighted, key=lambda i: (-(u01(i) ** (1.0 / weights[i - 1])), i))
    chosen = scored[:k]
    if len(chosen) < k:
        for i in sorted(alive):
            if i not in chosen:
                chosen.append(i)
            if len(chosen) == k:
                break
    sg = frozenset(chosen)
    return StorageGroup(sg, frozenset(range(1, km.n + 1)) - sg, km.n)


@lru_cache(maxsize=1024)
def _share_coefficients(basis: tuple, sg: frozenset[int],
                        ug: frozenset[int]) -> tuple[tuple[int, int, int], ...]:
    p, x_kd, x_ks, he1_scalar, per_csp = basis
    ug = sorted(ug)
    xs = (x_kd, x_ks, *(per_csp[u - 1][0] for u in ug))
    out = []
    for i in sorted(sg):
        w = lagrange_weights(xs, per_csp[i - 1][0], p)
        b = sum(wu * per_csp[u - 1][1] for wu, u in zip(w[2:], ug))
        out.append((i, (w[0] + w[1] * he1_scalar) % p, b % p))
    return tuple(out)


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


def checked_data_point(xs: tuple[int, ...], ys: Sequence[int], km: KeyMaterial,
                       what: str) -> int:
    """d = f(HF1(K_d)) of the polynomial through (xs, ys), accepted only
    when f(HF1(K_s)) equals HE1(d); raises InnerSignatureMismatch otherwise."""
    d = interpolate_at(xs, ys, km.x_kd, km.p)
    s = interpolate_at(xs, ys, km.x_ks, km.p)
    if s != km.he1(d):
        raise InnerSignatureMismatch(f"{what}: signature point {s} != HE1({d})")
    return d


def _group_points(
    pk: int,
    sg: frozenset[int] | set[int],
    fetched: Mapping[int, int],
    rg: Iterable[int],
    km: KeyMaterial,
) -> tuple[tuple[int, ...], list[int]]:
    """Abscissas and ordinates of the record polynomial as seen by rg:
    stored shares from storage-group members, pseudo shares otherwise."""
    rg = sorted(set(rg))
    if len(rg) != km.t:
        raise MissingShare(f"reconstruction group must have t={km.t} members, got {rg}")
    ys = []
    for i in rg:
        if i in sg:
            if i not in fetched:
                raise MissingShare(f"CSP {i} is in the storage group but sent no share")
            ys.append(fetched[i] % km.p)
        else:
            ys.append(km.he2(pk % km.p, km.id_of(i)))
    return tuple(km.x_id(i) for i in rg), ys


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
    xs, ys = _group_points(pk, sg, fetched, rg, km)
    return checked_data_point(xs, ys, km, f"pk {pk}")


def recover_share(
    pk: int,
    sg: frozenset[int] | set[int],
    fetched: Mapping[int, int],
    rg: Iterable[int],
    target: int,
    km: KeyMaterial,
) -> int:
    """Re-evaluate the record polynomial at a lost CSP's abscissa.

    The polynomial is rebuilt from t intact shares, the inner signature is
    checked, and the share the target CSP should hold falls out of f.
    """
    xs, ys = _group_points(pk, sg, fetched, rg, km)
    checked_data_point(xs, ys, km, f"pk {pk}: refusing to recover")
    return interpolate_at(xs, ys, km.x_id(target), km.p)


@dataclass(frozen=True)
class ShareBundle:
    pk: int
    group: StorageGroup
    plain: dict[str, int]                                 # fk columns, stored as-is
    shares: dict[str, dict[int, tuple[int, ...]] | None]  # attr -> csp -> chunks, None=null

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

    Pass group to pin the storage group (updates keep a record where it
    already lives; recovery re-shares in place).
    """
    unknown = set(record) - schema._by_name.keys()
    if unknown:
        raise SchemaMismatch(f"unknown columns {sorted(unknown)} for {schema.table}")
    pk = int(record[schema.key])  # type: ignore[arg-type]
    if group is None:
        group = select_storage_group(pk, weights, alive, km)
    plain = {c.name: int(record[c.name]) for c in schema.plain_columns() if c.name != schema.key}  # type: ignore[arg-type]
    p = km.p
    # share_value per chunk, with B_i*pk folded once per record
    terms = [(i, a, b * pk % p) for i, a, b in share_coefficients(group, km)]
    shares: dict[str, dict[int, tuple[int, ...]] | None] = {}
    for col in schema.data_columns():
        enc = encode(record.get(col.name), col.kind, scale=col.scale, bias=bias, p=p)
        if enc.is_null:
            shares[col.name] = None
            continue
        chunks = enc.chunks
        shares[col.name] = {
            i: tuple([(a * c + bpk) % p for c in chunks]) for i, a, bpk in terms
        }
    return ShareBundle(pk=pk, group=group, plain=plain, shares=shares)
