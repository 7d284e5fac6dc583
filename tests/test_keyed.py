import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import P_DEFAULT, PrivacyWarning, init_participants
from fvss.errors import InvalidThreshold, OutOfRange, UnknownParticipant
from fvss.keyed import HF1_RANGE, KeyedSha256

SEED = bytes(range(32))
OTHER_SEED = bytes(reversed(range(32)))


def test_seven_distinct_evaluation_points(km_toy):
    xs = [km_toy.x_kd, km_toy.x_ks] + [km_toy.x_id(i) for i in range(1, 6)]
    assert len(set(xs)) == 7
    assert all(1 <= x < min(HF1_RANGE, km_toy.p) for x in xs)


def test_determinism_same_seed():
    a = init_participants(5, 4, seed=SEED)
    b = init_participants(5, 4, seed=SEED)
    assert a == b


def test_different_seed_different_material():
    a = init_participants(5, 4, seed=SEED)
    b = init_participants(5, 4, seed=OTHER_SEED)
    assert a != b
    assert a.k_d != b.k_d


def test_threshold_validation():
    with pytest.raises(InvalidThreshold):
        init_participants(3, 5, seed=SEED)
    with pytest.raises(InvalidThreshold):
        init_participants(4, 1, seed=SEED)


@pytest.mark.parametrize("p", [
    2**61, 10**18, 3**38,   # composite: Fermat inverses are wrong, every value read back 0
    2**64 + 13, 2**64 + 3,  # 64 bits or more: the draws' rejection bound is 0
    7,                      # prime, but the 9 participant values do not fit in [2, 6]
    2,                      # prime, no room for any value
], ids=["2^61", "10^18", "3^38", "2^64+13", "2^64+3", "7", "2"])
def test_a_modulus_that_is_not_a_prime_in_range_is_refused(p):
    with pytest.raises(OutOfRange, match=rf"^p must be a prime with n\+t\+2 = 11 <= p < 2\^64,"
                                         rf" got {p}$"):
        init_participants(5, 4, seed=SEED, p=p)


@pytest.mark.parametrize("p", [11, 13, 2**64 - 59])
def test_the_primes_at_the_modulus_bounds_are_taken(p):
    km = init_participants(5, 4, seed=SEED, p=p)
    xs = [km.x_kd, km.x_ks] + [km.x_id(i) for i in range(1, 6)]
    assert km.p == p and len(set(xs)) == 7


def test_wide_threshold_warns():
    # n >= 2t-2 means |sg| >= t: any storage group could reconstruct alone
    with pytest.warns(PrivacyWarning):
        init_participants(6, 4, seed=SEED)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        init_participants(5, 4, seed=SEED)


def test_hf1_unregistered_rejected(km_toy):
    with pytest.raises(UnknownParticipant):
        km_toy.hf1(999999)


def test_hf1_repeat_stable(km_toy):
    assert km_toy.hf1(km_toy.k_d) == km_toy.hf1(km_toy.k_d) == km_toy.x_kd


def test_he1_linear(km_big):
    p = km_big.p
    assert km_big.he1(0) == 0
    for a, b in [(1, 2), (123456, 999), (p - 1, p - 1)]:
        assert km_big.he1((a + b) % p) == (km_big.he1(a) + km_big.he1(b)) % p


def test_he1_frozen_example(km_toy):
    km = km_toy._replace(he1_scalar=3)
    assert km.he1(100) == 49  # 300 mod 251


def test_he2_frozen_example(km_toy):
    some_id = km_toy.id_of(1)
    mults = dict(km_toy.he2_multipliers)
    mults[some_id] = 7
    km = km_toy._replace(he2_multipliers=mults)
    assert km.he2(40, some_id) == 29  # 280 mod 251
    assert km.he2(0, some_id) == 0


def test_he2_unknown_id(km_toy):
    with pytest.raises(UnknownParticipant):
        km_toy.he2(40, 123456789)


def test_he_star_frozen_example(km_toy):
    scalars = dict(km_toy.he_star_scalars)
    scalars[2] = 5
    km = km_toy._replace(he_star_scalars=scalars)
    assert km.he_star(2, 60) == 49  # 300 mod 251
    assert km.he_star(2, 0) == 0


def test_he_star_linear(km_big):
    p = km_big.p
    for i in range(1, 6):
        a, b = 17, p - 5
        assert km_big.he_star(i, (a + b) % p) == (
            km_big.he_star(i, a) + km_big.he_star(i, b)
        ) % p


def test_hf_star_deterministic_and_per_csp(km_big):
    blob = b"record-bytes"
    assert km_big.hf_star(1, blob) == km_big.hf_star(1, blob)
    sigs = {km_big.hf_star(i, blob) for i in range(1, 6)}
    assert len(sigs) == 5
    assert all(0 <= s < km_big.p for s in sigs)


def test_hf_star_collision_free_on_random_pairs(km_big):
    import random

    rng = random.Random(7)
    seen = set()
    for _ in range(10_000):
        blob = rng.randbytes(24)
        seen.add(km_big.hf_star(1, blob))
    assert len(seen) == 10_000


def test_scalars_nonzero(km_big):
    assert km_big.he1_scalar != 0
    assert all(m != 0 for m in km_big.he2_multipliers.values())
    assert all(c != 0 for c in km_big.he_star_scalars.values())


def test_filler_points_reserved(km_big):
    # t-2 extra abscissas for cube cells, distinct from everything else
    assert len(km_big.filler_ids) == km_big.t - 2
    xs = {km_big.x_kd, km_big.x_ks}
    xs.update(km_big.x_id(i) for i in range(1, 6))
    xs.update(km_big.x_filler(j) for j in range(km_big.t - 2))
    assert len(xs) == 7 + km_big.t - 2


@given(st.integers(0, P_DEFAULT - 1), st.integers(0, P_DEFAULT - 1))
@settings(max_examples=50)
def test_he1_additive_property(a, b):
    km = init_participants(5, 4, seed=SEED)
    assert km.he1((a + b) % km.p) == (km.he1(a) + km.he1(b)) % km.p


@settings(max_examples=60, deadline=None)
@given(key=st.binary(max_size=130), msgs=st.lists(st.binary(max_size=200), max_size=4))
def test_keyed_sha256_is_hmac_sha256(key, msgs):
    """The precomputed-state HMAC gives hmac.digest's bytes for any key
    length (a key longer than the block is hashed first) and is not
    changed by the messages it has seen."""
    mac = KeyedSha256(key)
    for msg in msgs + [b"", bytes(range(64))]:
        assert mac.digests([msg]) == [hmac.digest(key, msg, "sha256")]


@settings(max_examples=60, deadline=None)
@given(key=st.binary(max_size=200), msgs=st.lists(st.binary(max_size=200), max_size=8))
def test_keyed_sha256_digests_are_hmac_sha256(key, msgs):
    """The one digest loop gives hmac.digest's bytes for every message,
    in order, for keys up to and beyond the 64-byte block."""
    msgs = msgs + [b"", bytes(range(64)), b"place|7|1"]
    assert KeyedSha256(key).digests(msgs) == [hmac.digest(key, m, "sha256") for m in msgs]
    assert KeyedSha256(key).digests([]) == []


def test_key_material_macs_match_hmac(km_big):
    record = bytes(range(40))
    for i in range(1, km_big.n + 1):
        digest = hmac.digest(km_big.hf_star_keys[i], record, "sha256")
        assert km_big.hf_star(i, record) == int.from_bytes(digest[:16], "big") % km_big.p
    assert km_big.seed_macs([b"place|7|1"]) == [hmac.digest(km_big.seed, b"place|7|1", "sha256")]
    records = [record, b"", bytes(range(100))]
    for i in range(1, km_big.n + 1):
        assert km_big.hf_stars(i, records) == [
            int.from_bytes(hmac.digest(km_big.hf_star_keys[i], r, "sha256")[:16], "big") % km_big.p
            for r in records]
    assert km_big.seed_macs([b"place|7|1", b""]) == [
        hmac.digest(km_big.seed, m, "sha256") for m in (b"place|7|1", b"")]
