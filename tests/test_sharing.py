import datetime
import hashlib
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import (
    DEFAULT_BIAS,
    P_DEFAULT,
    Column,
    Schema,
    decode,
    encode_chunks,
    group_from_bitmap,
    init_participants,
    lagrange_interpolate,
    reconstruct_value,
    recover_share,
    select_storage_group,
    share_record,
    share_value,
)
from fvss.cube import share_cell_chunk
from fvss.errors import (
    InnerSignatureMismatch,
    MissingShare,
    NotEnoughAliveCsps,
    OutOfRange,
    SchemaMismatch,
)
from fvss.sharing import encode_value, linear_rows, typed_key

from .conftest import SEED
from .oracles import cell_chunk_shares, chunk_form, eval_poly, interpolate_at, interpolate_gauss

ALL = (1, 2, 3, 4, 5)


# encoding


def test_encode_real_scale_two():
    chunks = encode_chunks(75.25, "real", scale=2, bias=0, p=P_DEFAULT)
    assert chunks == 7525
    assert decode(chunks, "real", scale=2) == Fraction(7525, 100)


def test_encode_string_per_byte():
    chunks = encode_chunks("Shirt", "string", p=P_DEFAULT)
    assert chunks == tuple(b"Shirt")
    assert len(chunks) == 5
    assert decode(chunks, "string") == "Shirt"


def test_encode_null():
    assert encode_chunks(None, "int", bias=DEFAULT_BIAS, p=P_DEFAULT) is None
    assert decode(None, "int") is None


def test_encode_negative_needs_bias():
    chunks = encode_chunks(-7, "int", bias=DEFAULT_BIAS, p=P_DEFAULT)
    assert decode(chunks, "int", bias=DEFAULT_BIAS) == -7
    with pytest.raises(OutOfRange):
        encode_chunks(-7, "int", bias=0, p=P_DEFAULT)


def test_scaled_int_rounds_like_fraction():
    """Half-way values go to the even neighbour, as round(Fraction) does,
    for every input type encode_chunks and typed_key accept."""
    from decimal import Decimal
    from fvss.sharing import scaled_int

    rng = random.Random(3)
    values = [Fraction(1, 8), Fraction(3, 8), Fraction(-1, 8), Fraction(-3, 8),
              Fraction(5, 2), Fraction(7, 2), 0.125, 0.375, -0.125, 2.675,
              Decimal("0.125"), Decimal("-2.5"), "0.375", "12.345", 7, -7, True]
    values += [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 4000))
               for _ in range(300)]
    for value in values:
        for scale in range(5):
            exact = Decimal(str(value)) if isinstance(value, float) else value
            assert scaled_int(value, scale) == int(round(Fraction(exact) * 10**scale))


def test_encode_date_and_bool():
    day = datetime.date(2004, 2, 5)
    chunks = encode_chunks(day, "date", bias=DEFAULT_BIAS, p=P_DEFAULT)
    assert decode(chunks, "date", bias=DEFAULT_BIAS) == day
    assert decode(encode_chunks(True, "bool", bias=3, p=97), "bool", bias=3) is True
    assert decode(encode_chunks(False, "bool", bias=3, p=97), "bool", bias=3) is False


def test_encode_unicode_string_round_trip():
    s = "naïve café"
    chunks = encode_chunks(s, "string", p=P_DEFAULT)
    assert decode(chunks, "string") == s


def test_encode_string_byte_exceeds_tiny_prime():
    with pytest.raises(OutOfRange):
        encode_chunks("a", "string", p=97)  # 'a' = 97


@given(st.integers(-(10**9), 10**9))
@settings(max_examples=100)
def test_int_round_trip(v):
    chunks = encode_chunks(v, "int", bias=DEFAULT_BIAS, p=P_DEFAULT)
    assert decode(chunks, "int", bias=DEFAULT_BIAS) == v


@given(st.decimals(allow_nan=False, allow_infinity=False, places=3,
                   min_value=-10**6, max_value=10**6))
@settings(max_examples=100)
def test_real_round_trip(v):
    chunks = encode_chunks(v, "real", scale=3, bias=DEFAULT_BIAS, p=P_DEFAULT)
    assert decode(chunks, "real", scale=3, bias=DEFAULT_BIAS) == Fraction(v)


# storage group selection


def test_zero_weight_never_selected_when_enough_others(km_toy):
    group = select_storage_group(124, (1, 0, 1, 0, 1), ALL, km_toy)
    assert group.bitmap == "10101"
    group = select_storage_group(9, (0, 0, 1, 1, 1), ALL, km_toy)
    assert group.bitmap == "00111"


def test_group_size_invariant(km_toy):
    for pk in range(1, 200):
        group = select_storage_group(pk, (1, 1, 1, 1, 1), ALL, km_toy)
        assert len(group.sg) == 3  # n - t + 2
        assert group.bitmap.count("1") == 3
        assert group.sg | group.ug == set(ALL)


def test_failed_csps_excluded(km_toy):
    for pk in range(1, 50):
        group = select_storage_group(pk, (1, 1, 1, 1, 1), (1, 2, 3, 4), km_toy)
        assert 5 not in group.sg


def test_too_few_alive(km_toy):
    with pytest.raises(NotEnoughAliveCsps):
        select_storage_group(1, (1, 1, 1, 1, 1), (1, 2), km_toy)


def test_selection_deterministic(km_toy):
    a = select_storage_group(77, (1, 2, 3, 4, 5), ALL, km_toy)
    b = select_storage_group(77, (1, 2, 3, 4, 5), ALL, km_toy)
    assert a == b


def test_bitmap_round_trip(km_toy):
    group = select_storage_group(42, (1, 1, 1, 1, 1), ALL, km_toy)
    assert group_from_bitmap(group.bitmap) == group


# share and reconstruct


def test_share_value_respects_construction_points(km_toy):
    d = 75
    group = group_from_bitmap("10101")
    shares = share_value(d, 124, group, km_toy)
    assert set(shares) == {1, 3, 5}
    # every t-subset of csps reconstructs d and passes the signature check
    for rg in combinations(ALL, km_toy.t):
        fetched = {i: shares[i] for i in rg if i in group.sg}
        assert reconstruct_value(124, group.sg, fetched, rg, km_toy) == d


def test_reconstruct_detects_bad_share(km_toy):
    group = group_from_bitmap("11100")
    shares = share_value(200, 9, group, km_toy)
    shares[2] = (shares[2] + 1) % km_toy.p
    with pytest.raises(InnerSignatureMismatch):
        reconstruct_value(9, group.sg, shares, (1, 2, 3, 4), km_toy)


def test_reconstruct_checks_group_size(km_toy):
    group = group_from_bitmap("11100")
    shares = share_value(5, 1, group, km_toy)
    with pytest.raises(MissingShare):
        reconstruct_value(1, group.sg, shares, (1, 2, 3), km_toy)  # t-1 members
    with pytest.raises(MissingShare):
        reconstruct_value(1, group.sg, {1: shares[1]}, (1, 2, 3, 4), km_toy)


def test_rg_avoiding_storage_members_uses_pseudo_shares(km_toy):
    # sg = {1,2,3}: rg {2,3,4,5} mixes two stored with two pseudo shares
    group = group_from_bitmap("11100")
    d = 123
    shares = share_value(d, 55, group, km_toy)
    got = reconstruct_value(55, group.sg, {2: shares[2], 3: shares[3]},
                            (2, 3, 4, 5), km_toy)
    assert got == d


def test_recover_share_matches_original(km_toy):
    group = group_from_bitmap("10101")
    shares = share_value(99, 31, group, km_toy)
    rg = (2, 3, 4, 5)
    fetched = {i: shares[i] for i in rg if i in group.sg}
    assert recover_share(31, group.sg, fetched, rg, 1, km_toy) == shares[1]


def test_recover_share_refuses_corrupt_donors(km_toy):
    group = group_from_bitmap("10101")
    shares = share_value(99, 31, group, km_toy)
    rg = (2, 3, 4, 5)
    fetched = {i: shares[i] for i in rg if i in group.sg}
    fetched[3] = (fetched[3] + 1) % km_toy.p
    with pytest.raises(InnerSignatureMismatch):
        recover_share(31, group.sg, fetched, rg, 1, km_toy)


@given(st.integers(0, P_DEFAULT - 1), st.integers(1, 10**9))
@settings(max_examples=50)
def test_share_reconstruct_round_trip_default_prime(d, pk):
    km = init_participants(5, 4, seed=SEED)
    group = select_storage_group(pk, (1, 1, 1, 1, 1), ALL, km)
    shares = share_value(d, pk, group, km)
    for rg in combinations(ALL, km.t):
        fetched = {i: shares[i] for i in rg if i in group.sg}
        assert reconstruct_value(pk, group.sg, fetched, rg, km) == d


@pytest.mark.parametrize("km_name", ["km_toy", "km_big"])
def test_weights_match_reference_for_every_group_and_target(km_name, request):
    """Randomized ordinates through the abscissas of every storage group
    (sharing), every reconstruction group (reconstruction, recovery,
    share-space sums) and the cube fillers, evaluated at every abscissa
    the scheme uses."""
    km = request.getfixturevalue(km_name)
    fillers = tuple(km.x_filler(j) for j in range(km.t - 2))
    targets = (km.x_kd, km.x_ks, *(km.x_id(i) for i in ALL), *fillers)
    abscissa_sets = [(km.x_kd, km.x_ks, *fillers)]
    for sg in combinations(ALL, km.n - km.t + 2):
        group = group_from_bitmap("".join("1" if i in sg else "0" for i in ALL))
        abscissa_sets.append((km.x_kd, km.x_ks, *(km.x_id(i) for i in sorted(group.ug))))
    for rg in combinations(ALL, km.t):
        abscissa_sets.append(tuple(km.x_id(i) for i in rg))
    assert len(abscissa_sets) == 1 + 10 + 5
    rng = random.Random(km.p)
    for xs in abscissa_sets:
        for _ in range(20):
            ys = [rng.randrange(km.p) for _ in xs]
            points = list(zip(xs, ys))
            coeffs = interpolate_gauss(points, km.p)
            reference = lagrange_interpolate(points, km.p)
            for x in targets:
                assert interpolate_at(xs, ys, x, km.p) \
                    == eval_poly(coeffs, x, km.p) == reference(x)


@pytest.mark.parametrize("km_name", ["km_toy", "km_big"])
def test_share_value_equals_interpolation_for_every_group_and_member(km_name, request):
    """The linear-coefficient shares are the record polynomial through the
    data point, its signature and the left-out CSPs' pseudo shares,
    evaluated at each member's abscissa."""
    km = request.getfixturevalue(km_name)
    rng = random.Random(km.p + 1)
    for sg in combinations(ALL, km.n - km.t + 2):
        group = group_from_bitmap("".join("1" if i in sg else "0" for i in ALL))
        ug = sorted(group.ug)
        xs = (km.x_kd, km.x_ks, *(km.x_id(u) for u in ug))
        for d, pk in [(0, 1), (km.p - 1, km.p + 3), (-5, 7)] + [
                (rng.randrange(km.p), rng.randrange(1, 10**12)) for _ in range(20)]:
            ys = (d % km.p, km.he1(d), *(km.he2(pk % km.p, km.id_of(u)) for u in ug))
            shares = share_value(d, pk, group, km)
            assert sorted(shares) == sorted(sg)
            for i in sg:
                assert shares[i] == interpolate_at(xs, ys, km.x_id(i), km.p)


def _dot(weights, ys):
    return sum(w * y for w, y in zip(weights, ys))


@pytest.mark.parametrize("km_name", ["km_toy", "km_big"])
def test_linear_rows_match_the_oracle_for_every_group_rg_and_target(km_name, request):
    """For every storage group, every t-member reconstruction group and
    every target (each CSP abscissa and K_d), the folded rows give the
    value at the target, and the check row gives s - HE1(d), of the
    polynomial interpolate_gauss fits through rg's points: the stored
    shares of rg ∩ sg (random here) and the pseudo shares of the rest."""
    km = request.getfixturevalue(km_name)
    p = km.p
    rng = random.Random(p + 2)
    targets = (km.x_kd, *(km.x_id(i) for i in ALL))
    for sg in combinations(ALL, km.n - km.t + 2):
        for rg in combinations(ALL, km.t):
            for _ in range(3):
                pk = rng.randrange(1, 10**12)
                stored = {i: rng.randrange(p) for i in rg if i in sg}
                coeffs = interpolate_gauss([
                    (km.x_id(i), stored[i] if i in sg else km.he2(pk % p, km.id_of(i)))
                    for i in rg
                ], p)
                d, s = eval_poly(coeffs, km.x_kd, p), eval_poly(coeffs, km.x_ks, p)
                for x in targets:
                    rows = linear_rows(frozenset(sg), rg, x, km)
                    assert rows.donors == tuple(sorted(stored))
                    ys = [stored[i] for i in rows.donors]
                    assert (_dot(rows.weights, ys) + rows.pk_term * pk) % p \
                        == eval_poly(coeffs, x, p)
                    assert (_dot(rows.check, ys) + rows.check_pk * pk) % p == (s - km.he1(d)) % p
            # genuine shares pass the check row
            d = rng.randrange(p)
            group = group_from_bitmap("".join("1" if i in sg else "0" for i in ALL))
            shares = share_value(d, pk, group, km)
            rows = linear_rows(group.sg, rg, km.x_kd, km)
            ys = [shares[i] for i in rows.donors]
            assert (_dot(rows.check, ys) + rows.check_pk * pk) % p == 0
            assert (_dot(rows.weights, ys) + rows.pk_term * pk) % p == d


@pytest.mark.parametrize("km_name", ["km_toy", "km_big"])
def test_cube_cell_shares_match_the_oracle(km_name, request):
    """Each provider's cached cell coefficients give the polynomial
    through the data point, its signature and the filler ordinates."""
    km = request.getfixturevalue(km_name)
    rng = random.Random(km.p + 4)
    for pk in range(1, 6):
        for k in range(2):
            value = rng.randrange(km.p)
            assert share_cell_chunk(km, "cube:c", pk, "m", k, value) \
                == cell_chunk_shares(km, "cube:c", pk, "m", k, value)


# record sharing


def _schema():
    return Schema("product", (
        Column("ProdNo", "key"),
        Column("DateKey", "fk", fk_table="dates"),
        Column("price", "real", scale=2),
        Column("prodName", "string"),
    ))


def test_share_record_bundle_shape(km_toy):
    bundle = share_record(
        dict(ProdNo=124, DateKey=7, price=0.75, prodName=None),
        _schema(), (1, 1, 1, 1, 1), ALL, km_toy, bias=0,
    )
    assert bundle.pk == 124
    assert bundle.plain == {"DateKey": 7}
    assert bundle.shares["prodName"] is None
    price = bundle.shares["price"]
    assert set(price) == bundle.group.sg
    assert all(type(share) is int for share in price.values())


def test_share_record_same_group_all_columns(km_toy):
    bundle = share_record(
        dict(ProdNo=1, DateKey=2, price=1.0, prodName="ab"),
        _schema(), (1, 1, 1, 1, 1), ALL, km_toy, bias=0,
    )
    assert set(bundle.shares["price"]) == set(bundle.shares["prodName"])
    assert all(len(c) == 2 for c in bundle.shares["prodName"].values())


def test_share_record_rejects_unknown_columns(km_toy):
    with pytest.raises(SchemaMismatch):
        share_record(dict(ProdNo=1, bogus=5), _schema(),
                     (1, 1, 1, 1, 1), ALL, km_toy)


def test_a_value_that_is_not_whole_is_refused_where_an_int_is_due(km_toy):
    """typed_key, encode_value and share_record refuse an int, key or fk
    value that is not a whole number rather than truncate it (2.7 used to
    become 2), and read a whole one of any type as its int."""
    for kind in ("int", "key", "fk"):
        for value in (2.7, Fraction(5, 2), "2.5", Decimal("2.5"), "x"):
            with pytest.raises(SchemaMismatch, match="not a whole number"):
                typed_key(value, kind)
        for value in (2, 2.0, Fraction(4, 2), "2", Decimal("2.00")):
            assert typed_key(value, kind) == 2
        assert type(typed_key(2.0, kind)) is int
    with pytest.raises(SchemaMismatch):
        encode_value(2.7, "int", p=P_DEFAULT)
    assert encode_value(2.0, "int", p=P_DEFAULT) == (2, 2)
    schema = Schema("s", (Column("k", "key"), Column("f", "fk"), Column("q", "int")))
    for row in (dict(k=1, f=2, q=2.7), dict(k=1.5, f=2, q=3), dict(k=1, f=2.5, q=3)):
        with pytest.raises(SchemaMismatch, match="whole number"):
            share_record(row, schema, (1,) * 5, ALL, km_toy, bias=0)
    bundle = share_record(dict(k=1.0, f=Fraction(2), q=3.0), schema, (1,) * 5, ALL, km_toy, bias=0)
    assert (bundle.pk, bundle.plain) == (1, {"f": 2})


def test_share_record_group_override(km_toy):
    pinned = group_from_bitmap("01011")
    bundle = share_record(
        dict(ProdNo=1, DateKey=2, price=1.5, prodName="x"),
        _schema(), (1, 1, 1, 1, 1), ALL, km_toy, bias=0, group=pinned,
    )
    assert bundle.group == pinned


def test_three_rows_make_nine_stored_slices(km_toy):
    # n=5, t=4: each record lands at n-t+2 = 3 providers
    total = 0
    for pk in (124, 125, 126):
        bundle = share_record(
            dict(ProdNo=pk, DateKey=1, price=0.99, prodName="p"),
            _schema(), (1, 1, 1, 1, 1), ALL, km_toy, bias=0,
        )
        total += len(bundle.shares["price"])
    assert total == 9


# golden shares: pins the stored bytes of a seeded fixture

# sha256 of the fixture below, captured from the coefficient-form sharing
# code; any change to how shares are computed must reproduce them exactly.
# Re-captured once, when systematic placement replaced the weighted draw:
# the odd pks are placed by the draw, so their groups and shares changed;
# a digest over the even pks alone, whose groups are pinned, is the same
# before and after
GOLDEN_TOY = "49692ae4521b56a6a4bcf02af35a77e7ab4d48d5b16ac1acfd4510d1ef59fa79"
GOLDEN_BIG = "d84df2d13e73b32242e68818aa40e7b874154cc1057681f2568ba417c4ddc0b9"


def _golden_share_digest(km, bias) -> str:
    schema = Schema("sales", (
        Column("SaleNo", "key"),
        Column("ProdNo", "fk", fk_table="product"),
        Column("qty", "int"),
        Column("price", "real", scale=2),
        Column("name", "string"),
        Column("ok", "bool"),
    ))
    bitmaps = [group_from_bitmap("".join("1" if i in sg else "0" for i in ALL))
               for sg in combinations(ALL, km.n - km.t + 2)]
    rng = random.Random(20141215)
    h = hashlib.sha256()
    for pk in range(1, 121):
        row = dict(
            SaleNo=pk,
            ProdNo=rng.randrange(1, 50),
            qty=None if pk % 7 == 0 else rng.randrange(0, 250),
            price=Fraction(rng.randrange(0, 250), 100),
            name="".join(rng.choice("abcxyz") for _ in range(rng.randrange(0, 5))),
            ok=rng.random() < 0.5,
        )
        group = None if pk % 2 else bitmaps[pk // 2 % len(bitmaps)]
        bundle = share_record(row, schema, (1, 2, 3, 1, 1), ALL, km,
                              bias=bias, group=group)
        # hashed in the chunk-tuple form the digest was captured in
        h.update(repr((bundle.pk, bundle.bitmap, sorted(bundle.plain.items()),
                       sorted((a, None if s is None else sorted(
                           (i, chunk_form(v, schema.column(a).kind)) for i, v in s.items()))
                              for a, s in bundle.shares.items()))).encode())
    for pk in range(1, 41):
        for k in range(2):
            value = rng.randrange(km.p)
            shares = share_cell_chunk(km, "cube:by_year", pk, "sum_price", k, value)
            h.update(repr(sorted(shares.items())).encode())
    return h.hexdigest()


def test_golden_share_digest(km_toy, km_big):
    assert _golden_share_digest(km_toy, 0) == GOLDEN_TOY
    assert _golden_share_digest(km_big, DEFAULT_BIAS) == GOLDEN_BIG
