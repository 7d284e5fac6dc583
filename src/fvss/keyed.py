"""Keyed function family backing the scheme.

One 32-byte master seed deterministically derives every secret: the data
and signature keys K_d and K_s, CSP identifiers, the scalars behind the
homomorphic maps, per-CSP signing keys, and the small-integer evaluation
points. Re-deriving from the same seed reproduces identical material, so
the config file only ever persists the seed.

Concrete instantiations:
  HF1     keyed hash into [1, 2^20), resampled until all images distinct
  HE1(h)  a * h mod p with a secret nonzero scalar (linear, injective)
  HE2(a,b)  a * m_b mod p with a secret nonzero multiplier per participant
  HF*_i   per-CSP HMAC-SHA256, truncated to 128 bits, reduced mod p
  HE*_i   c_i * h mod p with a secret nonzero scalar per CSP

The linear maps satisfy HE(x) +- HE(y) = HE(x +- y) exactly, which is what
keeps share-space aggregation and signature sums consistent.

Every keyed hash after initialization takes a batch of messages through
one digest loop, KeyedSha256.digests: the HF*_i of records (hf_stars) and
the seed MACs of storage placement and of cube cell fillers (seed_macs).
"""

from __future__ import annotations

import hashlib
import hmac
import warnings
from functools import cached_property
from typing import NamedTuple

from .errors import InvalidThreshold, OutOfRange, UnknownParticipant
from .field import P_DEFAULT, is_prime

HF1_RANGE = 1 << 20


class PrivacyWarning(UserWarning):
    """n >= 2t-2 lets a single CSP hold a threshold of shares."""


def _draw(seed: bytes, label: str, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi], deterministic per (seed, label)."""
    span = hi - lo + 1
    bound = (1 << 64) // span * span
    counter = 0
    while True:
        digest = hmac.digest(seed, f"{label}|{counter}".encode(), "sha256")
        v = int.from_bytes(digest[:8], "big")
        if v < bound:
            return lo + v % span
        counter += 1


_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class KeyedSha256:
    """HMAC-SHA256 (RFC 2104) under one key, of a batch of messages at a
    time. The key's inner and outer hash states are computed once and
    copied per message, which costs about a third of keying hmac.digest
    afresh each time."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        if len(key) > 64:
            key = hashlib.sha256(key).digest()
        key = key.ljust(64, b"\0")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def digests(self, messages) -> list[bytes]:
        """The HMAC of each of messages, in order, in one loop."""
        inner_copy, outer_copy = self._inner.copy, self._outer.copy
        out = []
        for msg in messages:
            inner = inner_copy()
            inner.update(msg)
            outer = outer_copy()
            outer.update(inner.digest())
            out.append(outer.digest())
        return out


class Immutable:
    """Refuses attribute assignment, for a named-tuple record whose
    subclass keeps an instance dict (derived values, cached properties)."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__


class _KeyFields(NamedTuple):
    seed: bytes
    p: int
    n: int
    t: int
    k_d: int
    k_s: int
    ids: tuple[int, ...]               # ID_i, index i-1
    filler_ids: tuple[int, ...]        # t-2 reserved abscissa owners for cube rows
    he1_scalar: int
    he2_multipliers: dict[int, int]    # ID value -> multiplier
    he_star_scalars: dict[int, int]    # CSP index -> scalar
    hf_star_keys: dict[int, bytes]
    points: dict[int, int]             # registered value -> HF1 image


class KeyMaterial(Immutable, _KeyFields):
    """Every secret init_participants derives from the seed. The keyed
    hash states are cached properties, which keep their values in the
    instance's own dict, so this subclass of the fields has no
    __slots__; it refuses attribute assignment all the same. Its repr
    leaves out the signing keys."""

    def __new__(cls, seed, p, n, t, k_d, k_s, ids, filler_ids, he1_scalar, he2_multipliers,
                he_star_scalars, hf_star_keys=None, points=None):
        return super().__new__(cls, seed, p, n, t, k_d, k_s, ids, filler_ids, he1_scalar,
                               he2_multipliers, he_star_scalars,
                               {} if hf_star_keys is None else hf_star_keys,
                               {} if points is None else points)

    def __repr__(self) -> str:
        shown = (f"{name}={value!r}" for name, value in zip(self._fields, self)
                 if name != "hf_star_keys")
        return f"{type(self).__name__}({', '.join(shown)})"

    def hf1(self, a: int) -> int:
        try:
            return self.points[a]
        except KeyError:
            raise UnknownParticipant(f"value {a} was not registered at init") from None

    def he1(self, h: int) -> int:
        return self.he1_scalar * h % self.p

    def he2(self, a: int, b: int) -> int:
        try:
            m = self.he2_multipliers[b]
        except KeyError:
            raise UnknownParticipant(f"no multiplier for participant {b}") from None
        return a * m % self.p

    def hf_star(self, i: int, record_bytes: bytes) -> int:
        return self.hf_stars(i, (record_bytes,))[0]

    def hf_stars(self, i: int, messages) -> list[int]:
        """HF*_i of each of messages, in order, through one digest loop."""
        p = self.p
        return [int.from_bytes(digest[:16], "big") % p
                for digest in self._hf_star_macs[i].digests(messages)]

    def seed_macs(self, messages) -> list[bytes]:
        """HMAC-SHA256 under the master seed of each of messages, in order,
        through one digest loop."""
        return self._seed_mac.digests(messages)

    @cached_property
    def _seed_mac(self) -> "KeyedSha256":
        return KeyedSha256(self.seed)

    @cached_property
    def _hf_star_macs(self) -> dict[int, "KeyedSha256"]:
        return {i: KeyedSha256(key) for i, key in self.hf_star_keys.items()}

    def he_star(self, i: int, h: int) -> int:
        return self.he_star_scalars[i] * h % self.p

    @cached_property
    def share_basis(self) -> tuple:
        """Every value a stored share's coefficients depend on, as one
        hashable tuple: p, the K_d and K_s abscissas, the HE1 scalar, and
        per CSP (ascending) its abscissa and HE2 multiplier."""
        return (self.p, self.x_kd, self.x_ks, self.he1_scalar,
                tuple((self.x_id(i), self.he2_multipliers[self.id_of(i)])
                      for i in range(1, self.n + 1)))

    # interpolation abscissas

    @property
    def x_kd(self) -> int:
        return self.points[self.k_d]

    @property
    def x_ks(self) -> int:
        return self.points[self.k_s]

    def x_id(self, i: int) -> int:
        """Abscissa of CSP i (1-based)."""
        return self.points[self.ids[i - 1]]

    def x_filler(self, j: int) -> int:
        """Abscissa of reserved filler slot j (0-based), used by cube rows."""
        return self.points[self.filler_ids[j]]

    def id_of(self, i: int) -> int:
        return self.ids[i - 1]


def init_participants(n: int, t: int, seed: bytes, p: int = P_DEFAULT) -> KeyMaterial:
    """Run the whole initialization: draw keys, IDs, scalars and the HF1 table.

    Deterministic from (n, t, seed, p). Raises InvalidThreshold unless
    2 <= t <= n, and OutOfRange unless p is a prime with n+t+2 <= p < 2^64:
    Fermat inverses need a prime, the n+t distinct participant values are
    drawn from [2, p-1], and a draw takes 64 bits. Warns when n >= 2t-2
    because then n-t+2 >= t and one CSP group reaches the reconstruction
    threshold on its own.
    """
    if t < 2 or t > n:
        raise InvalidThreshold(f"need 2 <= t <= n, got t={t}, n={n}")
    if not (n + t + 2 <= p < 1 << 64 and is_prime(p)):
        raise OutOfRange(f"p must be a prime with n+t+2 = {n + t + 2} <= p < 2^64, got {p}")
    if n >= 2 * t - 2:
        warnings.warn(
            f"n={n} >= 2t-2={2 * t - 2}: a storage group holds >= t shares",
            PrivacyWarning,
            stacklevel=2,
        )

    # participant values: K_d, K_s, n CSP ids, t-2 filler ids, all distinct in (1, p)
    taken: set[int] = set()

    def draw_value(label: str) -> int:
        r = 0
        while True:
            v = _draw(seed, f"{label}#{r}", 2, p - 1)
            if v not in taken:
                taken.add(v)
                return v
            r += 1

    k_d = draw_value("K_d")
    k_s = draw_value("K_s")
    ids = tuple(draw_value(f"ID{i}") for i in range(1, n + 1))
    filler_ids = tuple(draw_value(f"FILL{j}") for j in range(t - 2))

    # HF1 images, assigned in registration order with rejection on collision;
    # capped below p so abscissas stay distinct after reduction at toy primes
    hf1_hi = min(HF1_RANGE, p) - 1
    points: dict[int, int] = {}
    used_images: set[int] = set()
    for v in (k_d, k_s, *ids, *filler_ids):
        r = 0
        while True:
            img = _draw(seed, f"hf1|{v}#{r}", 1, hf1_hi)
            if img not in used_images:
                used_images.add(img)
                points[v] = img
                break
            r += 1
    assert len(set(points.values())) == len(points)

    he1_scalar = _draw(seed, "he1", 1, p - 1)
    he2_multipliers = {ids[i - 1]: _draw(seed, f"he2|{i}", 1, p - 1) for i in range(1, n + 1)}
    he_star_scalars = {i: _draw(seed, f"hestar|{i}", 1, p - 1) for i in range(1, n + 1)}
    hf_star_keys = {
        i: hmac.digest(seed, f"hfstar|{i}".encode(), "sha256")
        for i in range(1, n + 1)
    }

    return KeyMaterial(
        seed=seed,
        p=p,
        n=n,
        t=t,
        k_d=k_d,
        k_s=k_s,
        ids=ids,
        filler_ids=filler_ids,
        he1_scalar=he1_scalar,
        he2_multipliers=he2_multipliers,
        he_star_scalars=he_star_scalars,
        hf_star_keys=hf_star_keys,
        points=points,
    )
