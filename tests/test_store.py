import datetime
import random
import shutil
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import Column, DerivedColumn, Schema, Warehouse, init_participants
from fvss.errors import (
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
from fvss.index import TypeOneIndex
from fvss.provider import StoredRecord
from fvss.query import execute, parse
from fvss.sharing import typed_key

from .faults import drop_record
from .oracles import PlainWarehouse, get_record, triples, type1_set


PRODUCT = Schema("product", (
    Column("ProdNo", "key"),
    Column("prodName", "string"),
    Column("price", "real", scale=1),
    Column("qty", "int"),
))


def _warehouse(km, **kw):
    wh = Warehouse(km, w=3, bias=0, **kw)
    wh.create_table(PRODUCT, index_attrs=("price", "prodName", "qty"))
    return wh


def _type2_entries(wh):
    """(table, attr) -> the sorted (key, pk) entries of every Type II index."""
    return {index: wh.type2.entries(*index) for index in wh.type2.keys}


def _rows():
    return [
        dict(ProdNo=124, prodName="Shirt", price=7.5, qty=3),
        dict(ProdNo=125, prodName="Sock", price=2.0, qty=10),
        dict(ProdNo=126, prodName="Hat", price=9.9, qty=None),
        dict(ProdNo=127, prodName=None, price=1.1, qty=7),
    ]


# Type I


def test_fig8_pseudo_sum():
    idx = TypeOneIndex()
    idx.create_table("t")
    for pk, bm in [(124, "10101"), (125, "01110"), (126, "11010"), (127, "00111")]:
        type1_set(idx, "t", pk, bm)
    # bit 1 is 0 exactly for 125 and 127
    assert idx.pseudo_sum("t", [124, 125, 126, 127], 1, 10**9) == 252
    assert idx.pseudo_sum("t", [124], 1, 10**9) == 0
    assert idx.pseudo_sum("t", [127], 2, 10**9) == 127


def test_pseudo_sum_partition_identity(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    pks = wh.type1.pks("product")
    total = sum(pks)
    for i in range(1, 6):
        stored = sum(pk for pk in pks if wh.type1.bitmap("product", pk)[i - 1] == "1")
        pseudo = wh.type1.pseudo_sum("product", pks, i, km_toy.p)
        assert (pseudo + stored) % km_toy.p == total % km_toy.p


def test_popcount_matches_group_size(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    for pk in wh.type1.pks("product"):
        assert wh.type1.bitmap("product", pk).count("1") == 3


# Type II


def test_lookup_predicates(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    look = wh.type2.lookup
    assert look("product", "price", "=", 20) == {125}
    assert look("product", "price", "=", 33) == set()
    assert look("product", "price", "<", 75) == {125, 127}
    assert look("product", "price", "<=", 75) == {124, 125, 127}
    assert look("product", "price", ">", 75) == {126}
    assert look("product", "price", ">=", 11) == {124, 125, 126, 127}
    assert look("product", "price", "between", (20, 75)) == {124, 125}
    assert look("product", "price", "in", (20, 99)) == {125, 126}
    assert look("product", "price", "!=", 20) == {124, 126, 127}


def test_lookup_matches_brute_force(km_toy):
    rng = random.Random(5)
    wh = Warehouse(km_toy, w=3, bias=0)
    sch = Schema("r", (Column("id", "key"), Column("v", "int")))
    wh.create_table(sch, index_attrs=("v",))
    rows = [dict(id=i, v=rng.randrange(100)) for i in range(1, 201)]
    wh.load_rows("r", rows)
    plain = {r["id"]: r["v"] for r in rows}
    for op, pred in [
        ("=", lambda v: v == 50), ("<", lambda v: v < 30), (">=", lambda v: v >= 70),
        ("between", lambda v: 20 <= v <= 40), ("in", lambda v: v in (3, 99, 55)),
    ]:
        operand = {"=": 50, "<": 30, ">=": 70, "between": (20, 40),
                   "in": (3, 99, 55)}[op]
        want = {pk for pk, v in plain.items() if pred(v)}
        assert wh.type2.lookup("r", "v", op, operand) == want


def test_lookup_unindexed_raises(km_toy):
    wh = Warehouse(km_toy, w=3, bias=0)
    wh.create_table(Schema("x", (Column("id", "key"), Column("v", "int"))))
    with pytest.raises(NotIndexed):
        wh.type2.lookup("x", "v", "=", 1)


def test_string_index_and_null_absent(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    assert wh.type2.lookup("product", "prodName", "=", "Hat") == {126}
    # 127 has a null name: absent from every predicate result
    assert wh.type2.lookup("product", "prodName", ">=", "") == {124, 125, 126}


def test_index_aggregates(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    pks = set(wh.type1.pks("product"))
    agg = wh.type2.aggregate
    assert agg("product", "price", "max", pks) == 126
    assert agg("product", "price", "min", pks) == 127
    assert agg("product", "price", "count", pks) == 4
    assert agg("product", "qty", "count", pks) == 3  # null excluded
    # values 3, 7, 10 -> lower middle is 7 (pk 127)
    assert agg("product", "qty", "median", pks) == 127
    assert agg("product", "price", "max", {125}) == 125
    with pytest.raises(EmptyInput):
        agg("product", "price", "max", set())


def test_median_matches_sort_oracle(km_toy):
    rng = random.Random(11)
    wh = Warehouse(km_toy, w=3, bias=0)
    wh.create_table(Schema("m", (Column("id", "key"), Column("v", "int"))),
                    index_attrs=("v",))
    rows = [dict(id=i, v=rng.randrange(50)) for i in range(1, 32)]
    wh.load_rows("m", rows)
    ranked = sorted((r["v"], r["id"]) for r in rows)
    want = ranked[(len(ranked) - 1) // 2][1]
    assert wh.type2.aggregate("m", "v", "median", {r["id"] for r in rows}) == want


def test_order_key_kinds():
    assert typed_key(None, "int") is None
    assert typed_key(-3, "int") == -3
    assert typed_key(7.5, "real", 1) == 75
    assert typed_key(Fraction(15, 2), "real", 1) == 75
    assert typed_key(datetime.date(1970, 1, 11), "date") == 10
    assert typed_key(True, "bool") == 1
    assert typed_key("zz", "string") == "zz"


# record round trips


def test_round_trip_all_reconstruction_groups(km_toy):
    from itertools import combinations
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    want = {
        124: dict(ProdNo=124, prodName="Shirt", price=Fraction(75, 10), qty=3),
        125: dict(ProdNo=125, prodName="Sock", price=Fraction(2), qty=10),
        126: dict(ProdNo=126, prodName="Hat", price=Fraction(99, 10), qty=None),
        127: dict(ProdNo=127, prodName=None, price=Fraction(11, 10), qty=7),
    }
    for rg in combinations((1, 2, 3, 4, 5), 4):
        for pk, row in want.items():
            assert wh.reconstruct_record("product", pk, rg) == row


def test_update_in_place_same_group(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    before = wh.type1.bitmap("product", 124)
    wh.insert("product", dict(ProdNo=124, prodName="Shirt", price=8.0, qty=99))
    assert wh.type1.bitmap("product", 124) == before
    rec = wh.reconstruct_record("product", 124)
    assert rec["qty"] == 99 and rec["price"] == Fraction(8)
    # index reflects the new value, old key gone
    assert wh.type2.lookup("product", "price", "=", 80) == {124}
    assert wh.type2.lookup("product", "price", "=", 75) == set()
    # per-CSP slice length unchanged: update, not append
    for i in range(1, 6):
        assert len(wh.csps[i].tables["product"]) == sum(
            1 for pk in wh.type1.pks("product")
            if wh.type1.bitmap("product", pk)[i - 1] == "1"
        )


def test_update_null_transitions(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    wh.insert("product", dict(ProdNo=126, prodName="Hat", price=9.9, qty=5))
    assert wh.reconstruct_value("product", 126, "qty") == 5
    wh.insert("product", dict(ProdNo=126, prodName="Hat", price=9.9, qty=None))
    assert wh.reconstruct_value("product", 126, "qty") is None
    assert wh.type2.lookup("product", "qty", ">=", -10**6) == {124, 125, 127}


def test_update_with_failed_group_member_refused(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    sg = [i for i, b in enumerate(wh.type1.bitmap("product", 124), 1) if b == "1"]
    wh.inject_failure(sg[0])
    with pytest.raises(CspUnavailable):
        wh.insert("product", dict(ProdNo=124, prodName="S", price=1.0, qty=1))


def test_new_record_avoids_failed_csp(km_toy):
    wh = _warehouse(km_toy)
    wh.inject_failure(2)
    wh.load_rows("product", _rows())
    for pk in wh.type1.pks("product"):
        assert wh.type1.bitmap("product", pk)[1] == "0"
    # reads still fine with 4 alive
    assert wh.reconstruct_value("product", 124, "qty") == 3


def test_availability_thresholds(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    wh.inject_failure(5)
    for pk in (124, 125, 126, 127):
        wh.reconstruct_record("product", pk)  # n-t = 1 failure tolerated
    wh.inject_failure(4)
    with pytest.raises(NotEnoughAliveCsps):
        wh.reconstruct_value("product", 124, "qty")
    # three alive is still n-t+2: writing works even when reading cannot
    wh.insert("product", dict(ProdNo=990, prodName="N", price=1.0, qty=1))
    assert wh.type1.bitmap("product", 990) == "11100"
    wh.inject_failure(3)
    with pytest.raises(NotEnoughAliveCsps):
        wh.insert("product", dict(ProdNo=991, prodName="N", price=1.0, qty=1))
    wh.heal(3)
    wh.heal(4)
    wh.heal(5)
    assert wh.reconstruct_value("product", 124, "qty") == 3
    assert wh.reconstruct_value("product", 990, "qty") == 1


def test_duplicate_table_rejected(km_toy):
    wh = _warehouse(km_toy)
    with pytest.raises(DuplicateTable):
        wh.create_table(PRODUCT)


T = Schema("t", (Column("id", "key"), Column("f", "fk"), Column("v", "int")))
SQUARE_V = DerivedColumn("t", "v2", "square", "v")


@pytest.mark.parametrize("refused", [
    dict(index_attrs=("nope",)),
    dict(index_attrs=("v", "nope")),
    dict(derived=(SQUARE_V, DerivedColumn("other", "w", "square", "v"))),
], ids=["unknown index", "known and unknown index", "derived column of another table"])
def test_a_refused_create_table_leaves_nothing_behind(tmp_path, km_toy, refused):
    wh = _warehouse(km_toy)
    with pytest.raises(SchemaMismatch):
        wh.create_table(T, **refused)
    assert list(wh.schemas) == ["product"]
    assert "t" not in wh.type1.entries
    assert [table for table, _ in wh.type2.keys] == ["product"] * 3
    assert wh.type3.for_table("t") == []
    assert all(list(csp.pks) == ["product"] for csp in wh.csps.values())
    wh.create_table(T, index_attrs=("v",), derived=(SQUARE_V,))
    assert wh.load_rows("t", [dict(id=1, f=3, v=4), dict(id=2, f=3, v=None)]) == 2
    wh.save(tmp_path)
    back = Warehouse.load(tmp_path, km_toy, [(PRODUCT, ("price", "prodName", "qty"), ()),
                                             (T, ("v",), (SQUARE_V,))], w=3, bias=0)
    assert back.reconstruct_table("t") == [dict(id=1, f=3, v=4, v2=16),
                                           dict(id=2, f=3, v=None, v2=None)]


def test_unknown_table_rejected(km_toy):
    wh = Warehouse(km_toy, bias=0)
    with pytest.raises(UnknownTable):
        wh.insert("ghost", dict(id=1))
    with pytest.raises(UnknownTable):
        wh.reconstruct_table("ghost")


def test_derived_columns_computed_and_shared(km_toy):
    wh = Warehouse(km_toy, w=3, bias=0)
    sch = Schema("s", (Column("id", "key"), Column("x", "int")))
    wh.create_table(sch, derived=(DerivedColumn("s", "x^2", "square", "x"),))
    wh.insert("s", dict(id=1, x=9))
    wh.insert("s", dict(id=2, x=None))
    assert wh.reconstruct_value("s", 1, "x^2") == 81
    assert wh.reconstruct_value("s", 2, "x^2") is None
    # same storage group as the base record
    for i in range(1, 6):
        for rec in wh.csps[i].tables["s"]:
            assert ("x^2" in rec.shares) == ("x" in rec.shares)


def test_derived_product_and_quotient(km_toy):
    wh = Warehouse(km_toy, w=3, bias=0)
    sch = Schema("s", (Column("id", "key"),
                       Column("x", "real", scale=1), Column("y", "int")))
    wh.create_table(sch, derived=(
        DerivedColumn("s", "x*y", "product", "x", "y", scale=1),
        DerivedColumn("s", "x/y", "quotient", "x", "y", scale=2),
    ))
    wh.insert("s", dict(id=1, x=1.5, y=8))
    assert wh.reconstruct_value("s", 1, "x*y") == Fraction(12)
    assert wh.reconstruct_value("s", 1, "x/y") == Fraction(19, 100)  # 0.1875 -> 0.19


DERIVED_BASE = Schema("s", (Column("id", "key"), Column("f", "fk"), Column("x", "int"),
                            Column("r", "real", scale=1), Column("ok", "bool"),
                            Column("name", "string")))


@pytest.mark.parametrize("derived, source", [
    ((DerivedColumn("s", "sq", "square", "qq"),), "qq"),
    ((DerivedColumn("s", "sq", "square", "name"),), "name"),
    ((DerivedColumn("s", "sq", "square", "f"),), "f"),
    ((DerivedColumn("s", "sq", "square", "id"),), "id"),
    ((DerivedColumn("s", "xy", "product", "x", "r2"),
      DerivedColumn("s", "r2", "square", "r", scale=2)), "r2"),
    ((DerivedColumn("s", "xy", "product", "x"),), "None"),
], ids=["unknown", "string", "fk", "key", "later derived", "missing second"])
def test_a_derived_column_must_read_numeric_columns(km_toy, derived, source):
    """create_table refuses a derived column whose source is not an int,
    real or bool column of the table or an earlier derived column, naming
    it, and leaves nothing behind; a square over an unknown column used to
    load and answer SUM 0."""
    wh = Warehouse(km_toy, w=3, bias=0)
    with pytest.raises(SchemaMismatch, match=f"reads '?{source}'?, which is not a numeric"):
        wh.create_table(DERIVED_BASE, derived=derived)
    assert wh.schemas == {} and wh.type3.for_table("s") == []


def test_derived_columns_read_bools_and_earlier_derived_columns(km_toy):
    """A bool source, and True given to an int source, read as the 0/1
    their columns store; a derived column may read an earlier one; a
    source value that is no number raises SchemaMismatch naming its
    column, not a bare ValueError, and stores nothing."""
    wh = Warehouse(km_toy, w=3, bias=0)
    wh.create_table(DERIVED_BASE, derived=(
        DerivedColumn("s", "x2", "square", "x"),
        DerivedColumn("s", "x4", "square", "x2"),
        DerivedColumn("s", "rok", "product", "r", "ok", scale=1),
    ))
    wh.load_rows("s", [dict(id=1, f=1, x=True, r=Fraction(5, 2), ok=True, name="a"),
                       dict(id=2, f=1, x=3, r=1.5, ok=False, name="b")])
    assert [(row["x2"], row["x4"], row["rok"]) for row in wh.reconstruct_table("s")] == [
        (1, 1, Fraction(5, 2)), (9, 81, Fraction(0))]
    with pytest.raises(SchemaMismatch, match="s.x must be a number, got 'a'"):
        wh.load_rows("s", [dict(id=3, f=1, x="a", r=1, ok=True, name="c")])
    assert wh.type1.pks("s") == [1, 2]


# tamper plumbing


def test_tamper_detected_by_both_signatures(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    victim = next(pk for pk in wh.type1.pks("product")
                  if wh.type1.bitmap("product", pk)[0] == "1")
    wh.inject_tamper(1, "product", victim, "price")
    report = wh.verify_csp(1)
    assert not report.ok
    assert report.entries[0].table == "product"
    from fvss.errors import InnerSignatureMismatch
    with pytest.raises(InnerSignatureMismatch):
        wh.reconstruct_value("product", victim, "price", rg=(1, 2, 3, 4))


def test_tamper_unknown_position(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    with pytest.raises(UnknownRecordPosition):
        wh.inject_tamper(1, "product", 999, "price")


@pytest.mark.parametrize("attr,chunk,error,match", [
    ("qty", 1, OutOfRange, r"^product\[\d+\]\.qty has no chunk 1: its share has 1$"),
    ("qty", 5, OutOfRange, "has no chunk 5"),
    ("qty", -1, OutOfRange, "has no chunk -1"),
    ("prodName", 5, OutOfRange, r"^product\[\d+\]\.prodName has no chunk 5: its share has 5$"),
    ("nope", 0, SchemaMismatch, "^no column nope in product$"),
    ("ProdNo", 0, SchemaMismatch, "^product.ProdNo is not a shared data column$"),
], ids=["int chunk 1", "int chunk 5", "chunk -1", "string past its end", "unknown attribute",
        "key"])
def test_tamper_refuses_what_no_share_holds_and_changes_nothing(km_toy, attr, chunk, error,
                                                                 match):
    """A chunk outside [0, the share's chunk count) or an attribute that is
    not a shared data column is refused before any share changes."""
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    i = wh.type1.bitmap("product", 124).index("1") + 1   # a provider of the Shirt record
    before = wh.csps[i].slice_values(PRODUCT)
    with pytest.raises(error, match=match):
        wh.inject_tamper(i, "product", 124, attr, chunk)
    assert wh.csps[i].slice_values(PRODUCT) == before
    assert wh.verify_csp(i).ok


def test_verify_failed_csp_refused(km_toy):
    wh = _warehouse(km_toy)
    wh.inject_failure(3)
    with pytest.raises(CspUnavailable):
        wh.verify_csp(3)


@pytest.mark.parametrize("method,args", [
    ("inject_failure", (9,)),
    ("heal", (0,)),
    ("verify_csp", (9,)),
    ("inject_tamper", (9, "product", 124, "price")),
    ("recover_csp_shares", (9,)),
])
def test_an_unknown_provider_is_an_unknown_participant(km_toy, method, args):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    wh.inject_failure(5)
    before = {i: (csp.alive, csp.slice_values(PRODUCT)) for i, csp in wh.csps.items()}
    with pytest.raises(UnknownParticipant, match=f"^no CSP {args[0]}$"):
        getattr(wh, method)(*args)
    assert {i: (csp.alive, csp.slice_values(PRODUCT)) for i, csp in wh.csps.items()} == before
    assert all(report.ok for report in wh.verify_all().values())


# recovery


def test_recovery_restores_exact_slice(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    target = 1
    store = wh.csps[target]
    want = store.tables["product"]
    for pos, rec in enumerate(want):
        zeroed = {a: c if c is None else tuple(0 for _ in c) if type(c) is tuple else 0
                  for a, c in rec.shares.items()}
        store.update_shared_record(wh.schemas["product"], pos,
                                   StoredRecord(rec.pk, rec.plain, zeroed))
    assert store.tables["product"] != want
    n = wh.recover_csp_shares(target)
    assert n > 0
    got = wh.csps[target].tables["product"]
    assert [(r.pk, r.plain, r.shares) for r in got] == \
           [(r.pk, r.plain, r.shares) for r in want]
    assert wh.verify_csp(target).ok


def test_recovery_needs_enough_donors(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    wh.inject_failure(4)
    wh.inject_failure(5)
    with pytest.raises(NotEnoughAliveCsps):
        wh.recover_csp_shares(1)


def test_recovery_rejects_target_as_donor(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    with pytest.raises(CspUnavailable):
        wh.recover_csp_shares(1, rg=(1, 2, 3, 4))


@pytest.mark.parametrize("fault", ["null", "short"])
@pytest.mark.parametrize("donor", [0, 1])
def test_recovery_refuses_disagreeing_donors(km_toy, donor, fault):
    """A donor whose null mark or chunk count differs from its peer's stops
    recovery before the target's slice or signature tree is rewritten."""
    wh = _warehouse(km_toy)
    wh.load_rows("product", [
        dict(ProdNo=200 + k, prodName=f"p{k}", price=k / 2, qty=k) for k in range(20)
    ])
    target = 5
    rg = wh.choose_rg(exclude=(target,))
    pk, bitmap = next((pk, bm) for pk in wh.type1.pks("product")
                      if (bm := wh.type1.bitmap("product", pk))[target - 1] == "1")
    donors = [j for j in rg if bitmap[j - 1] == "1"]
    assert len(donors) == 2
    store = wh.csps[donors[donor]]
    pos = store.position_of("product", pk)
    rec = get_record(store, "product", pos)
    rec.shares["prodName"] = None if fault == "null" else rec.shares["prodName"][:-1]
    store.update_shared_record(wh.schemas["product"], pos, rec)
    want = wh.csps[target].tables["product"]
    with pytest.raises(MissingShare, match="null marks" if fault == "null" else "chunk counts"):
        wh.recover_csp_shares(target)
    got = wh.csps[target].tables["product"]
    assert [(r.pk, r.plain, r.shares) for r in got] == \
           [(r.pk, r.plain, r.shares) for r in want]
    assert wh.verify_csp(target).ok


def _recovery_fixture(km):
    """A 20-record warehouse, a target CSP, a pk the target holds, and the
    two members of the default reconstruction group that donate it."""
    wh = _warehouse(km)
    wh.load_rows("product", [
        dict(ProdNo=200 + k, prodName=f"p{k}", price=k / 2, qty=k) for k in range(20)
    ])
    target = 5
    rg = wh.choose_rg(exclude=(target,))
    pk, bitmap = next((pk, bm) for pk in wh.type1.pks("product")
                      if (bm := wh.type1.bitmap("product", pk))[target - 1] == "1")
    donors = [j for j in rg if bitmap[j - 1] == "1"]
    assert len(donors) == 2
    return wh, target, pk, donors


def _holding(wh, i):
    """CSP i's slice share for share, and its signature trees."""
    csp = wh.csps[i]
    tree = csp.sigtree
    return (csp.slice_values(wh.schemas["product"]),
            {t: triples(tr) for t, tr in tree.record_trees.items()},
            triples(tree.table_layer))


@pytest.mark.parametrize("attr,chunk", [("price", 0), ("prodName", 1)])
@pytest.mark.parametrize("donor", [0, 1])
def test_recovery_refuses_a_donor_that_fails_the_inner_signature(km_big, donor, attr, chunk):
    """One tampered chunk at a donor fails its check row: recovery raises
    before the target's slice or signature trees are rewritten."""
    wh, target, pk, donors = _recovery_fixture(km_big)
    wh.inject_tamper(donors[donor], "product", pk, attr, chunk, 1)
    want = _holding(wh, target)
    with pytest.raises(InnerSignatureMismatch, match=f"pk {pk}: refusing to recover"):
        wh.recover_csp_shares(target)
    assert _holding(wh, target) == want
    assert wh.verify_csp(target).ok


@pytest.mark.parametrize("donor", [0, 1])
def test_recovery_refuses_a_donor_missing_a_record(km_big, donor):
    """A donor whose pk list lacks a record the target holds raises
    UnknownRecordPosition before the target is touched."""
    wh, target, pk, donors = _recovery_fixture(km_big)
    drop_record(wh, donors[donor], "product", pk)
    want = _holding(wh, target)
    with pytest.raises(UnknownRecordPosition, match=f"pk {pk} not stored at CSP {donors[donor]}"):
        wh.recover_csp_shares(target)
    assert _holding(wh, target) == want
    assert wh.verify_csp(target).ok


FK_TABLE = Schema("t", (Column("id", "key"), Column("f", "fk", fk_table="u"),
                        Column("s", "string"), Column("v", "int")))


def test_fetch_shares_reads_a_column(km_toy):
    """fetch_shares returns what one fetch_share per pk returns and counts
    the same bytes, and refuses a pk the provider does not hold or a
    failed provider."""
    wh = Warehouse(km_toy, w=3, bias=0)
    wh.create_table(FK_TABLE)
    wh.load_rows("t", [dict(id=k, f=k % 3, s=None if k % 4 == 0 else "xy" * (k % 3 + 1),
                            v=None if k % 5 == 0 else k) for k in range(1, 25)])
    for i, csp in wh.csps.items():
        pks = csp.pks["t"][::-1]
        for attr in ("s", "v"):
            start = csp.bytes_transferred
            got = csp.fetch_shares("t", attr, pks)
            mid = csp.bytes_transferred
            assert got == [csp.fetch_share("t", pk, attr) for pk in pks]
            assert mid - start == csp.bytes_transferred - mid
        absent = next(pk for pk in wh.type1.pks("t") if pk not in csp.positions["t"])
        with pytest.raises(UnknownRecordPosition, match=f"pk {absent} not stored"):
            csp.fetch_shares("t", "v", pks[:2] + [absent])
        wh.inject_failure(i)
        with pytest.raises(CspUnavailable):
            csp.fetch_shares("t", "v", pks)
        wh.heal(i)


def test_a_provider_that_rewrites_a_stored_fk_changes_no_read(km_big):
    """fks are read from the index server, not from a provider: after the
    first donor of a record rewrites its stored fk, a row-mode SELECT and
    reconstruct_record still return the loaded value, recovering another
    member of the record's storage group stores that value, and
    verify_csp flags the provider that lied."""
    wh = Warehouse(km_big, w=3)
    wh.create_table(FK_TABLE)
    wh.load_rows("t", [dict(id=k, f=k % 3, s="xy", v=k) for k in range(1, 13)])
    pk = 7
    sg = [i for i, bit in enumerate(wh.type1.bitmap("t", pk), 1) if bit == "1"]
    liar, target = sg[0], sg[-1]
    assert liar in wh.choose_rg()                  # the first donor of every read below
    wh.csps[liar].plain["t"]["f"][pk] = 2          # loaded as 7 % 3 == 1
    assert execute(wh, "SELECT id, f FROM t WHERE id = 7")[1] == [(7, 1)]
    assert wh.reconstruct_record("t", pk)["f"] == 1
    wh.inject_failure(target)
    wh.recover_csp_shares(target, [i for i in wh.csps if i != target])
    wh.heal(target)
    assert wh.csps[target].plain["t"]["f"][pk] == 1
    assert wh.verify_csp(target).ok
    report = wh.verify_csp(liar)
    assert [(e.table, e.position) for e in report.entries] \
        == [("t", wh.csps[liar].position_of("t", pk))]


@pytest.fixture(scope="module")
def km_wide():
    """n=7, t=5: six donors per target, so six valid reconstruction groups."""
    return init_participants(7, 5, seed=bytes(range(32)))


_FK_ROWS = st.lists(
    st.fixed_dictionaries({
        "f": st.integers(0, 9),
        "s": st.none() | st.text(min_size=1, max_size=4),
        "v": st.none() | st.integers(-10**6, 10**6),
    }),
    min_size=1, max_size=12,
)


@given(_FK_ROWS, st.randoms())
@settings(max_examples=15, deadline=None)
def test_recovery_from_every_valid_rg_restores_the_slice(km_wide, rows, rnd):
    """Fail each provider in turn and recover it from every valid
    reconstruction group: the slice equals the one before the failure, and
    each provider's bytes_transferred grows by 8 * max(1, chunks) for each
    share value it donates; fk values come from the index server."""
    wh = Warehouse(km_wide, w=3)
    wh.create_table(FK_TABLE)
    pks = rnd.sample(range(1, 10**6), len(rows))
    wh.load_rows("t", [dict(row, id=pk) for pk, row in zip(pks, rows)])
    n, t = km_wide.n, km_wide.t
    for target in range(1, n + 1):
        want = wh.csps[target].slice_values(FK_TABLE)
        for rg in combinations([i for i in range(1, n + 1) if i != target], t):
            expected = dict.fromkeys(wh.csps, 0)
            for pk, bitmap in wh.type1.entries["t"].items():
                if bitmap[target - 1] != "1":
                    continue
                for j in [j for j in rg if bitmap[j - 1] == "1"]:
                    for attr in ("s", "v"):
                        chunks = wh.csps[j].columns["t"][attr].get(pk)
                        expected[j] += 8 * (len(chunks) if type(chunks) is tuple else 1)
            start = {i: csp.bytes_transferred for i, csp in wh.csps.items()}
            wh.inject_failure(target)
            wh.recover_csp_shares(target, rg)
            wh.heal(target)
            assert wh.csps[target].slice_values(FK_TABLE) == want
            assert wh.verify_csp(target).ok
            assert {i: csp.bytes_transferred - start[i] for i, csp in wh.csps.items()} == expected


# counters and persistence


def test_byte_counters_monotone(km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    moved0 = sum(c.bytes_transferred for c in wh.csps.values())
    wh.reconstruct_record("product", 124)
    moved1 = sum(c.bytes_transferred for c in wh.csps.values())
    assert moved1 > moved0


def test_save_load_round_trip(tmp_path, km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    wh.inject_failure(5)
    wh.save(tmp_path)
    spec = [(PRODUCT, ("price", "prodName", "qty"), ())]
    back = Warehouse.load(tmp_path, km_toy, spec, w=3, bias=0)
    assert back.alive_csps() == [1, 2, 3, 4]
    assert back.type1.entries == wh.type1.entries
    assert _type2_entries(back) == _type2_entries(wh)
    for i in range(1, 6):
        assert back.csps[i].sigtree.root == wh.csps[i].sigtree.root
        assert [(r.pk, r.plain, r.shares) for r in back.csps[i].tables["product"]] == \
               [(r.pk, r.plain, r.shares) for r in wh.csps[i].tables["product"]]
    back.heal(5)
    assert back.reconstruct_record("product", 124)["prodName"] == "Shirt"
    assert all(r.ok for r in back.verify_all().values())


def test_a_zero_share_is_a_value_not_a_null(tmp_path, km_big):
    """At bias 0, pk 0 with value 0 has the chunk 0 and every share 0. It
    reads back as 0, not NULL, through a query, save and load, and
    recovery, and counts as one share wherever shares are counted."""
    schema = Schema("z", (Column("k", "key"), Column("v", "int")))
    wh = Warehouse(km_big, w=3, bias=0)
    wh.create_table(schema, index_attrs=("v",))
    wh.load_rows("z", [{"k": 0, "v": 0}, {"k": 1, "v": None}])
    holders = [i for i, csp in wh.csps.items() if 0 in csp.positions["z"]]
    assert [wh.csps[i].fetch_share("z", 0, "v") for i in holders] == [0] * len(holders)
    sql = "SELECT SUM(v), COUNT(v), MAX(v) FROM z"
    assert execute(wh, sql)[1] == [(0, 1, 0)]
    assert wh.reconstruct_values("z", "v", [0, 1]) == [0, None]
    csp = wh.csps[holders[0]]
    before = csp.bytes_transferred
    assert csp.fetch_shares("z", "v", [0]) == [0]
    assert csp.bytes_transferred - before == 8

    wh.save(tmp_path)
    back = Warehouse.load(tmp_path, km_big, [(schema, ("v",), ())], w=3, bias=0)
    assert [back.csps[i].columns["z"]["v"].get(0) for i in holders] == [0] * len(holders)
    assert execute(back, sql)[1] == [(0, 1, 0)]
    for target in holders:
        back.inject_failure(target)
        assert back.recover_csp_shares(target) == 1
        back.heal(target)
        assert back.csps[target].fetch_share("z", 0, "v") == 0
        assert back.reconstruct_values("z", "v", [0, 1]) == [0, None]
    assert all(report.ok for report in back.verify_all().values())


def test_saved_files_deterministic(tmp_path, km_toy):
    wh = _warehouse(km_toy)
    wh.load_rows("product", _rows())
    a, b = tmp_path / "a", tmp_path / "b"
    wh.save(a)
    wh.save(b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


# saved files edited behind the store's back: the outer check must flag them

MORE = [dict(ProdNo=200 + k, prodName=f"p{k}", price=k / 2, qty=k) for k in range(12)]


def _reload(root, km):
    return Warehouse.load(root, km, [(PRODUCT, ("price", "prodName", "qty"), ())], w=3, bias=0)


def _breaches(wh):
    return {i: [(e.table, e.position) for e in report.entries]
            for i, report in wh.verify_all().items()}


def _clean_but(i, entries):
    return {j: entries if j == i else [] for j in range(1, 6)}


def test_extra_trailing_record_line_is_a_breach(tmp_path, km_big):
    wh = _warehouse(km_big)
    wh.load_rows("product", _rows() + MORE)
    wh.save(tmp_path)
    shares = tmp_path / "csp1" / "product.shares"
    lines = shares.read_text().splitlines()
    extra = "\t".join(["999"] + lines[-1].split("\t")[1:])
    shares.write_text("".join(line + "\n" for line in lines + [extra]))
    assert _breaches(_reload(tmp_path, km_big)) == _clean_but(1, [("product", len(lines))])


def test_dropped_last_record_line_is_a_breach(tmp_path, km_big):
    wh = _warehouse(km_big)
    wh.load_rows("product", _rows() + MORE)
    wh.save(tmp_path)
    shares = tmp_path / "csp1" / "product.shares"
    lines = shares.read_text().splitlines()
    shares.write_text("".join(line + "\n" for line in lines[:-1]))
    assert _breaches(_reload(tmp_path, km_big)) == _clean_but(1, [("product", len(lines) - 1)])


def test_torn_save_is_a_breach(tmp_path, km_big):
    """A save killed after it wrote csp1's .shares and before its .sigtree
    leaves a later slice under an earlier tree and Type I."""
    wh = _warehouse(km_big)
    wh.load_rows("product", _rows())
    wh.save(tmp_path / "old")
    wh.load_rows("product", MORE)
    wh.save(tmp_path / "new")
    old, new = (len((tmp_path / d / "csp1" / "product.shares").read_text().splitlines())
                for d in ("old", "new"))
    assert new > old
    (tmp_path / "old" / "csp1" / "product.shares").write_bytes(
        (tmp_path / "new" / "csp1" / "product.shares").read_bytes()
    )
    back = _reload(tmp_path / "old", km_big)
    assert _breaches(back) == _clean_but(1, [("product", g) for g in range(old, new)])


@given(st.integers(1, 5), st.sampled_from(("append", "drop", "swap")), st.randoms())
@settings(max_examples=30, deadline=None)
def test_edited_slice_is_a_breach_at_that_provider_only(km_big, i, edit, rnd):
    """Append, drop or swap lines of one provider's saved .shares file: that
    provider reports a breach and every other one verifies clean."""
    wh = _warehouse(km_big)
    wh.load_rows("product", _rows() + MORE)
    with tempfile.TemporaryDirectory() as root:
        wh.save(root)
        shares = Path(root) / f"csp{i}" / "product.shares"
        lines = shares.read_text().splitlines()
        if edit == "append":
            lines.append("\t".join(["900"] + rnd.choice(lines).split("\t")[1:]))
        elif edit == "drop":
            del lines[rnd.randrange(len(lines))]
        else:
            a, b = rnd.sample(range(len(lines)), 2)
            lines[a], lines[b] = lines[b], lines[a]
        shares.write_text("".join(line + "\n" for line in lines))
        reports = _reload(root, km_big).verify_all()
    assert not reports[i].ok
    assert all(report.ok for j, report in reports.items() if j != i)


def test_a_store_whose_state_files_count_stored_bytes_loads_as_before(tmp_path, km_big):
    """Stores saved while providers still counted stored bytes hold a
    bytes_stored line between alive and bytes_transferred in each state
    file. Such a store loads, verifies and answers as the store saved
    without it, and its next save drops the line and changes no other
    byte."""
    wh = _warehouse(km_big)
    wh.load_rows("product", _rows() + MORE)
    wh.reconstruct_table("product")
    wh.inject_failure(4)
    new, old = tmp_path / "new", tmp_path / "old"
    wh.save(new)
    shutil.copytree(new, old)
    for i in wh.csps:
        state = old / f"csp{i}" / "state"
        alive, moved = state.read_text().splitlines()
        state.write_text(f"{alive}\nbytes_stored\t{1000 * i + 7}\n{moved}\n")
    back = _reload(old, km_big)
    assert back.alive_csps() == [1, 2, 3, 5]
    assert {i: csp.bytes_transferred for i, csp in back.csps.items()} \
        == {i: csp.bytes_transferred for i, csp in wh.csps.items()} != {i: 0 for i in wh.csps}
    assert all(report.ok for report in back.verify_all().values())
    oracle = PlainWarehouse()
    oracle.add_table(PRODUCT, _rows() + MORE)
    for sql in ("SELECT SUM(price), COUNT(*), AVG(qty) FROM product",
                "SELECT prodName, MAX(qty) FROM product WHERE price >= 2.0 GROUP BY prodName"):
        assert execute(back, sql)[1] == execute(wh, sql)[1] == oracle.query(parse(sql))
    wh.save(new)
    back.save(old)
    assert {p.relative_to(old): p.read_bytes() for p in old.rglob("*") if p.is_file()} \
        == {p.relative_to(new): p.read_bytes() for p in new.rglob("*") if p.is_file()}


# the Type II files must be exactly those of the configured indexes


def test_missing_type2_file_is_a_schema_mismatch(tmp_path, km_big):
    """save writes every index file, an empty one too, so a missing file is
    a torn or edited store: load refuses it rather than answer from an
    empty index."""
    wh = _warehouse(km_big)
    wh.load_rows("product", _rows())
    wh.save(tmp_path)
    (tmp_path / "index" / "type2" / "product.qty.idx").unlink()
    with pytest.raises(SchemaMismatch, match=r"index/type2/product\.qty\.idx is missing"):
        _reload(tmp_path, km_big)


def test_empty_type2_file_loads(tmp_path, km_big):
    wh = _warehouse(km_big)
    wh.save(tmp_path)
    assert (tmp_path / "index" / "type2" / "product.qty.idx").read_text() == ""
    assert _type2_entries(_reload(tmp_path, km_big)) == _type2_entries(wh)


@pytest.mark.parametrize("how", ["extra file", "index dropped from the config"])
def test_unconfigured_type2_file_is_a_schema_mismatch(tmp_path, km_big, how):
    wh = _warehouse(km_big)
    wh.load_rows("product", _rows())
    wh.save(tmp_path)
    specs = [(PRODUCT, ("price", "prodName", "qty"), ())]
    name = "product.qty.idx"
    if how == "extra file":
        name = "product.ProdNo.idx"
        (tmp_path / "index" / "type2" / name).write_text("[124, 124]\n")
    else:
        specs = [(PRODUCT, ("price", "prodName"), ())]
    with pytest.raises(SchemaMismatch, match=f"index/type2/{name} is on disk but"):
        Warehouse.load(tmp_path, km_big, specs, w=3, bias=0)


@pytest.mark.parametrize("edit", ["entry dropped", "entry added"])
def test_fk_index_that_misses_a_record_fails_at_load(tmp_path, km_big, edit):
    """Reads take every fk from its Type II index, so a saved fk index that
    lacks or adds a record is refused at load, where a row-mode read
    would raise a bare KeyError and a GROUP BY the fk would put the
    record under NULL."""
    wh = Warehouse(km_big, w=3)
    wh.create_table(FK_TABLE)
    wh.load_rows("t", [dict(id=k, f=k % 3, s="xy", v=k) for k in range(1, 6)])
    wh.save(tmp_path)
    idx = tmp_path / "index" / "type2" / "t.f.idx"
    lines = idx.read_text().splitlines(keepends=True)
    idx.write_text("".join(lines[1:]) if edit == "entry dropped" else "".join(lines) + "[0, 99]\n")
    with pytest.raises(SchemaMismatch, match=r"index/type2/t\.f\.idx does not hold every t record"):
        Warehouse.load(tmp_path, km_big, [(FK_TABLE, (), ())], w=3)


def test_type2_entry_for_a_pk_type1_lacks_fails_at_load(tmp_path, km_big):
    """A query filters by its Type II lookups alone, so a saved index that
    names a record Type I does not hold is refused at load, where
    COUNT(*) ... WHERE qty = 3 would count it."""
    wh = _warehouse(km_big)
    wh.load_rows("product", _rows())
    wh.save(tmp_path)
    with (tmp_path / "index" / "type2" / "product.qty.idx").open("a") as f:
        f.write("[3, 999999]\n")
    with pytest.raises(SchemaMismatch,
                       match=r"^index/type2/product\.qty\.idx names product pk 999999, "
                             r"which Type I lacks$"):
        _reload(tmp_path, km_big)


def _edit_first_bitmap(root, bitmap):
    path = root / "index" / "type1.bitmap"
    lines = path.read_text().splitlines()
    table, pk, _ = lines[0].split("\t")
    lines[0] = f"{table}\t{pk}\t{bitmap}"
    path.write_text("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("bitmap", ["1111", "111111", "11x10", "00000", "10001", ""],
                         ids=["4 bits", "6 bits", "not a bit", "no ones", "2 ones", "empty"])
def test_type1_bitmap_of_another_shape_fails_at_load(tmp_path, km_big, bitmap):
    """Every record is stored by n-t+2 providers, a cube cell by all n, so
    a bitmap that is not n characters of 0 or 1 with at least n-t+2 ones
    is a torn or edited file: load refuses it, where it used to load and
    make every SUM raise InnerSignatureMismatch after trying each
    reconstruction group."""
    _saved(tmp_path, km_big)
    _edit_first_bitmap(tmp_path, bitmap)
    with pytest.raises(SchemaMismatch, match=rf"^index/type1\.bitmap: bitmap '{bitmap}' is not 5 "
                                             r"characters of 0 or 1 with at least 3 ones$"):
        _reload(tmp_path, km_big)


def test_type1_line_of_a_table_not_in_index_tables_fails_at_load(tmp_path, km_big):
    """A type1.bitmap line of a table that index/tables does not list is a
    torn or edited file: load refuses it, where it used to file the line
    and let the next save drop it silently."""
    _saved(tmp_path, km_big)
    path = tmp_path / "index" / "type1.bitmap"
    path.write_text(path.read_text() + "nosuch\t1\t11100\n")
    with pytest.raises(SchemaMismatch,
                       match=r"^index/type1\.bitmap: table 'nosuch' is not in index/tables$"):
        _reload(tmp_path, km_big)


def test_type1_bitmap_with_ones_in_range_loads_and_verify_reports_it(tmp_path, km_big):
    """A bitmap of the right shape that names providers which do not store
    the record loads; verify reports it as misplaced at those providers."""
    wh = _saved(tmp_path, km_big)
    pk = next(iter(wh.type1.entries["product"]))
    old = wh.type1.bitmap("product", pk)
    _edit_first_bitmap(tmp_path, "11111")
    back = _reload(tmp_path, km_big)
    assert back.type1.bitmap("product", pk) == "11111"
    reports = back.verify_all()
    assert {i for i, report in reports.items() if not report.ok} == \
        {i for i, bit in enumerate(old, 1) if bit == "0"}


# malformed saved files, and signature trees parsed on first use


def _saved(tmp_path, km):
    wh = _warehouse(km)
    wh.load_rows("product", _rows() + MORE)
    wh.save(tmp_path)
    return wh


@pytest.mark.parametrize("edit", ["one field too many", "one field too few"])
def test_shares_line_of_another_width_fails_at_load(tmp_path, km_big, edit):
    _saved(tmp_path, km_big)
    shares = tmp_path / "csp2" / "product.shares"
    lines = shares.read_text().splitlines()
    fields = lines[3].split("\t")
    lines[3] = "\t".join(fields + ["1"] if edit == "one field too many" else fields[:-1])
    shares.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(SchemaMismatch, match="product.shares: a line without 4 fields"):
        _reload(tmp_path, km_big)


@pytest.mark.parametrize("field", [0, 1, 2, 3], ids=["pk", "string", "real", "int"])
def test_shares_field_that_is_not_a_decimal_integer_fails_at_load(tmp_path, km_big, field):
    _saved(tmp_path, km_big)
    shares = tmp_path / "csp2" / "product.shares"
    lines = shares.read_text().splitlines()
    fields = lines[3].split("\t")
    fields[field] = "x" + fields[field]
    lines[3] = "\t".join(fields)
    shares.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(SchemaMismatch,
                       match="product.shares: a field that is not a decimal integer"):
        _reload(tmp_path, km_big)


@pytest.mark.parametrize("bitmap", ["same", "other"])
def test_a_type1_file_that_files_a_record_twice_fails_at_load(tmp_path, km_big, bitmap):
    """A second line for one (table, pk), with its bitmap or another, would
    leave the record filed under the last one: load refuses the file."""
    _saved(tmp_path, km_big)
    path = tmp_path / "index" / "type1.bitmap"
    lines = path.read_text().splitlines()
    table, pk, old = lines[2].split("\t")
    again = old if bitmap == "same" else "11111"
    path.write_text("".join(line + "\n" for line in lines + [f"{table}\t{pk}\t{again}"]))
    with pytest.raises(SchemaMismatch, match="^index/type1.bitmap: a product pk on two lines$"):
        _reload(tmp_path, km_big)


def test_empty_lines_in_saved_files_are_skipped(tmp_path, km_big):
    wh = _saved(tmp_path, km_big)
    for rel in ("csp1/product.shares", "csp1/product.sigtree", "csp1/state",
                "index/type1.bitmap", "index/type2/product.qty.idx"):
        path = tmp_path / rel
        path.write_text("\n" + path.read_text().replace("\n", "\n\n", 2))
    back = _reload(tmp_path, km_big)
    assert back.csps[1].slice_values(PRODUCT) == wh.csps[1].slice_values(PRODUCT)
    assert back.type1.entries == wh.type1.entries
    assert _type2_entries(back) == _type2_entries(wh) and back.type2.keys == wh.type2.keys
    assert back.csps[1].sigtree.record_trees["product"].levels \
        == wh.csps[1].sigtree.record_trees["product"].levels
    assert back.verify_csp(1).ok


@pytest.mark.parametrize("state,error", [
    ("alive\tyes\nbytes_transferred\t0\n", "alive is not 0 or 1"),
    ("bytes_transferred\t0\n", "alive is not 0 or 1"),
    ("alive\t1\nbytes_transferred\tmany\n", "bytes_transferred is not a decimal integer"),
    ("alive\t1\nbytes_transferred\t-3\n", "bytes_transferred is not a decimal integer"),
    ("alive\t1\n", "bytes_transferred is not a decimal integer"),
    ("alive\t1\nbytes_transferred\t0\t0\n", "a line that is not a name and a value"),
    ("alive 1\nbytes_transferred\t0\n", "a line that is not a name and a value"),
], ids=["alive yes", "no alive", "counter not a number", "negative counter", "no counter",
        "three fields", "no tab"])
def test_malformed_state_file_fails_at_load(tmp_path, km_big, state, error):
    _saved(tmp_path, km_big)
    (tmp_path / "csp2" / "state").write_text(state)
    with pytest.raises(SchemaMismatch, match=f"^csp2/state: {error}$"):
        _reload(tmp_path, km_big)


def _edit_tree(path, edit):
    lines = path.read_text().splitlines()
    if edit == "2 fields":
        lines[1] = "\t".join(lines[1].split("\t")[:2])
    elif edit == "4 fields":
        lines[1] += "\t5"
    else:   # a gap: the node after it moved to index 2
        level, _, value = lines[1].split("\t")
        lines[1] = f"{level}\t2\t{value}"
    path.write_text("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("edit,error", [
    ("2 fields", r"not enough values to unpack \(expected 3, got 2\)"),
    ("4 fields", r"too many values to unpack \(expected 3\)"),
    ("gap", r"non-contiguous triple \(0, 2\)"),
])
@pytest.mark.parametrize("name", ["product.sigtree", "_tables.sigtree"])
def test_malformed_tree_fails_at_first_use_and_queries_still_answer(tmp_path, km_big, edit,
                                                                      error, name):
    """A load reads every tree but parses none: a malformed one raises its
    ValueError when first used, by verify or save, every time, while a
    query never parses one and answers as the plaintext does."""
    _saved(tmp_path, km_big)
    _edit_tree(tmp_path / "csp3" / name, edit)
    back = _reload(tmp_path, km_big)
    for _ in range(2):
        with pytest.raises(ValueError, match=error):
            back.verify_csp(3)
        with pytest.raises(ValueError, match=error):
            back.save(tmp_path / "again")
    assert back.verify_csp(2).ok
    oracle = PlainWarehouse()
    oracle.add_table(PRODUCT, _rows() + MORE)
    for sql in ("SELECT SUM(price), COUNT(*), AVG(qty) FROM product",
                "SELECT prodName, MAX(qty) FROM product WHERE price >= 2.0 GROUP BY prodName"):
        assert execute(back, sql)[1] == oracle.query(parse(sql))
    assert back.csps[3].saved_trees is not None


def test_load_then_save_to_the_same_root_keeps_every_byte(tmp_path, km_big):
    _saved(tmp_path, km_big)
    before = {p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    back = _reload(tmp_path, km_big)
    assert all(csp.saved_trees is not None for csp in back.csps.values())
    back.save(tmp_path)
    after = {p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert after == before


def test_trees_are_read_at_load_not_at_first_use(tmp_path, km_big):
    """A save to the same root after the load cannot change the trees the
    loaded store verifies against."""
    wh = _saved(tmp_path, km_big)
    back = _reload(tmp_path, km_big)
    wh.load_rows("product", [dict(ProdNo=300 + k, prodName="n", price=1.5, qty=k)
                             for k in range(9)])
    wh.save(tmp_path)
    assert all(report.ok for report in back.verify_all().values())
    assert back.csps[1].sigtree.root != wh.csps[1].sigtree.root


# the scheme's threat-model boundary (see the README)


def test_threat_model_boundary_known_plaintexts_and_old_files(km_big):
    """Secrecy against fewer than t providers holds only without known
    plaintexts and without a history of old files, as the paper's scheme
    stands: a base-table share is A_i*c + B_i*pk per storage group, so one
    provider that knows two plaintexts of a group decodes every other
    value it holds there, and an in-place update shows it A_i*(c' - c).
    This pins the scheme; a change that makes it fail changes the scheme."""
    schema = Schema("t", (Column("k", "key"), Column("v", "int")))
    wh = Warehouse(km_big, w=3)
    wh.create_table(schema)
    rng = random.Random(31)
    rows = {pk: rng.randrange(-10**6, 10**6) for pk in range(1, 61)}
    wh.load_rows("t", [{"k": pk, "v": v} for pk, v in rows.items()])
    p, bias = km_big.p, wh.bias
    csp = wh.csps[1]
    groups = {}
    for pk in csp.pks["t"]:
        groups.setdefault(wh.type1.bitmap("t", pk), []).append(pk)
    group = max(groups.values(), key=len)
    assert len(group) >= 4
    share = {pk: csp.fetch_share("t", pk, "v") for pk in group}

    # two known plaintexts fix A_1 and B_1 for the whole storage group
    (k1, k2), rest = group[:2], group[2:]
    c1, c2 = rows[k1] + bias, rows[k2] + bias
    det = (c1 * k2 - c2 * k1) % p
    a = (share[k1] * k2 - share[k2] * k1) * pow(det, -1, p) % p
    b = (c1 * share[k2] - c2 * share[k1]) * pow(det, -1, p) % p
    decoded = {pk: (share[pk] - b * pk) * pow(a, -1, p) % p - bias for pk in rest}
    assert decoded == {pk: rows[pk] for pk in rest}

    # an in-place update moves the share by A_1 times the change
    wh.insert("t", {"k": k1, "v": rows[k1] + 777})
    assert (csp.fetch_share("t", k1, "v") - share[k1]) % p == a * 777 % p
