"""Acceptance gate: one test per advertised guarantee.

The quantitative tests pin the reference cost sheets at their stated
tolerances; the protocol tests exercise the sharing, availability,
integrity, aggregation, signature-tree, cube-refresh, and privacy
guarantees at desk scale with randomized inputs. Run with -v for one
pass/fail line per guarantee.
"""

import itertools
import random
from decimal import Decimal
from fractions import Fraction
from time import perf_counter

import pytest

from fvss import (
    P_DEFAULT,
    Column,
    DerivedColumn,
    Schema,
    Warehouse,
    compute_cost,
    execute,
    group_from_bitmap,
    init_participants,
    lagrange_interpolate,
    parse,
    poly_eval,
    reference_pricing,
    share_volume,
    sharing_profiles,
    access_profiles,
    storage_comparison,
    volume_curves,
)
from fvss.cube import CubeHierarchy, CubeMeasure, CubeSpec, cube_build, cube_query
from fvss.cube import cube_refresh
from fvss.errors import AvailabilityError, IntegrityError
from fvss.sharing import RECONSTRUCTIONS
from fvss.sigtree import SignatureTree

from .faults import report_null, restore_record
from .oracles import PlainWarehouse, triples

SEED = bytes(range(32))


# cost reproduction


def test_storage_bills_match_reference_within_a_cent():
    started = perf_counter()
    rows = storage_comparison()
    targets = ["113.60", "56.80", "19.31", "14.77", "34.08", "12.39"]
    for row, target in zip(rows, targets, strict=True):
        assert abs(row.cost - Decimal(target)) <= Decimal("0.01"), row.name
    # both placements of the pseudo-share scheme carry (n-t+2)V = 300 GB
    assert rows[4].total_gb == 300 and rows[5].total_gb == 300
    total, _ = share_volume("fvss", 5, 4, 100)
    assert total == 300
    assert perf_counter() - started < 1.0


def test_sharing_bills_and_wall_times():
    targets = [("6.40", 6 * 60 + 57), ("4.40", 8 * 60 + 20), ("2.80", 6 * 60 + 56)]
    pricing = reference_pricing()
    for profile, (usd, minutes) in zip(sharing_profiles(), targets, strict=True):
        report = compute_cost(profile, pricing)
        assert abs(report.total_dollars - Decimal(usd)) <= Decimal("0.05"), profile.name
        assert abs(report.wall_hours * 60 - minutes) <= 1, profile.name


def test_access_bills_and_wall_times():
    targets = [("0.48", 42), ("0.30", 50), ("0.12", 42)]
    pricing = reference_pricing()
    for profile, (usd, minutes) in zip(access_profiles(), targets, strict=True):
        report = compute_cost(profile, pricing)
        assert abs(report.total_dollars - Decimal(usd)) <= Decimal("0.01"), profile.name
        assert abs(report.wall_hours * 60 - minutes) <= 1, profile.name


def test_volume_growth_matches_closed_forms():
    curves = volume_curves(volume=1)
    for label, t_of_n in (("t=n", lambda n: n), ("t=3", lambda n: 3)):
        for scheme, points in curves[label].items():
            for n, total in points:
                t = t_of_n(n)
                want = {
                    "signed-full": 2 * n,
                    "full": n,
                    "multi-secret": Fraction(n, t - 1),
                    "ramp": Fraction(n, t),
                    "fvss": n - t + 2,
                }[scheme]
                assert total == want, (label, scheme, n)


# round trip over every reconstruction group


def _random_rows(rnd, count, toy):
    rows = []
    for pk in range(1, count + 1):
        if toy:
            rows.append({
                "Id": pk,
                "a": rnd.randint(0, 120) if rnd.random() > 0.15 else None,
                "ok": rnd.choice((True, False)),
                "tag": rnd.choice(("x", "yz", "qrs")),
            })
        else:
            rows.append({
                "Id": pk,
                "a": rnd.randint(-10**6, 10**6) if rnd.random() > 0.15 else None,
                "r": Fraction(rnd.randint(-10**5, 10**5), 100),
                "ok": rnd.choice((True, False, None)),
                "tag": rnd.choice(("alpha", "beta", None)),
            })
    return rows


def test_round_trip_identity_every_reconstruction_group():
    started = perf_counter()
    tables = failures = 0
    for p in (251, P_DEFAULT):
        toy = p == 251
        km = init_participants(5, 4, seed=SEED, p=p)
        rnd = random.Random(p)
        columns = [Column("Id", "key"), Column("a", "int"), Column("ok", "bool"),
                   Column("tag", "string")]
        if not toy:
            columns.insert(2, Column("r", "real", scale=2))
        schema = Schema("T", tuple(columns))
        for _ in range(50):
            wh = Warehouse(km, bias=0) if toy else Warehouse(km)
            wh.create_table(schema)
            rows = _random_rows(rnd, rnd.randint(1, 8), toy)
            wh.load_rows("T", rows)
            tables += 1
            for rg in itertools.combinations(range(1, 6), 4):
                for row in rows:
                    if wh.reconstruct_record("T", row["Id"], rg) != row:
                        failures += 1
    assert tables == 100
    assert failures == 0
    assert perf_counter() - started < 60


# availability under failures


SALE = Schema("Sale", (
    Column("SaleNo", "key"),
    Column("price", "real", scale=2),
    Column("qty", "int"),
))


def _sale_rows(rnd, start, count):
    return [
        {"SaleNo": pk, "price": Fraction(rnd.randint(0, 9999), 100),
         "qty": rnd.randint(0, 50)}
        for pk in range(start, start + count)
    ]


def test_availability_under_failures(km_big):
    rnd = random.Random(5)
    wh = Warehouse(km_big)
    wh.create_table(SALE, index_attrs=("price",))
    rows = _sale_rows(rnd, 1, 20)
    wh.load_rows("Sale", rows)

    # n - t = 1 failed: every read still comes back
    wh.inject_failure(5)
    good = sum(
        wh.reconstruct_record("Sale", row["SaleNo"]) is not None for row in rows
    )
    assert good == len(rows)

    # n - t + 1 = 2 failed: every read refuses
    wh.inject_failure(4)
    refused = 0
    for row in rows:
        with pytest.raises(AvailabilityError):
            wh.reconstruct_record("Sale", row["SaleNo"])
        refused += 1
    assert refused == len(rows)
    wh.heal(4)
    wh.heal(5)

    # any single failure: new records still share out and reconstruct,
    # with groups that include or avoid the healed CSP
    next_pk = 100
    for dead in range(1, 6):
        wh.inject_failure(dead)
        fresh = _sale_rows(rnd, next_pk, 4)
        next_pk += 4
        assert wh.load_rows("Sale", fresh) == 4
        for row in fresh:
            assert wh.reconstruct_record("Sale", row["SaleNo"]) == row
        wh.heal(dead)
        with_dead = next(
            rg for rg in wh.rg_candidates() if dead in rg
        )
        for row in fresh:
            assert wh.reconstruct_record("Sale", row["SaleNo"], with_dead) == row


# tamper detection and localization


def test_thousand_tampers_detected_and_localized(km_big):
    rnd = random.Random(17)
    wh = Warehouse(km_big)
    wh.create_table(SALE, index_attrs=("price",))
    wh.create_table(Schema("Note", (Column("Id", "key"), Column("text", "string"))))
    wh.load_rows("Sale", _sale_rows(rnd, 1, 25))
    wh.load_rows("Note", [
        {"Id": pk, "text": rnd.choice(("short", "a longer payload", "x" * 40))}
        for pk in range(1, 16)
    ])

    targets = []
    for i, csp in wh.csps.items():
        for table, records in csp.tables.items():
            for rec in records:
                for attr, share in rec.shares.items():
                    if share is not None:
                        width = len(share) if type(share) is tuple else 1
                        targets.append((i, table, rec.pk, attr, width))

    inner_hits = outer_hits = 0
    for _ in range(1000):
        i, table, pk, attr, width = rnd.choice(targets)
        chunk = rnd.randrange(width)
        delta = rnd.randrange(1, km_big.p)
        wh.inject_tamper(i, table, pk, attr, chunk=chunk, delta=delta)

        rg = rnd.choice([g for g in wh.rg_candidates() if i in g])
        with pytest.raises(IntegrityError):
            wh.reconstruct_value(table, pk, attr, rg)
        inner_hits += 1

        report = wh.verify_csp(i)
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.table == table
        assert entry.position == wh.csps[i].position_of(table, pk)
        sigtree = wh.csps[i].sigtree
        depth = sigtree.table_layer.depth + sigtree.record_trees[table].depth
        assert report.inspected <= sigtree.w * depth
        outer_hits += 1

        wh.inject_tamper(i, table, pk, attr, chunk=chunk, delta=-delta)

    assert inner_hits == 1000 and outer_hits == 1000
    assert all(wh.verify_csp(i).ok for i in wh.alive_csps())


def test_random_null_marks_never_drop_a_record(km_big):
    """One storage-group member marks a present value NULL, in its stored
    record and in its null_pks answer alike. Every query either rotates
    past it to the plaintext answer or, with a pinned group holding it,
    raises; none answers with the record left out."""
    wh, oracle = _aggregation_pair(km_big)
    rnd = random.Random(43)
    shapes = {
        "price": ("SELECT SUM(price), COUNT(price) FROM Sale{p}",
                  "SELECT AVG(price) FROM Sale{p}",
                  "SELECT VAR(price) FROM Sale{p}",
                  "SELECT SUM(price+tax) FROM Sale{p}"),
        "tax": ("SELECT SUM(tax), COUNT(tax) FROM Sale{p}",
                "SELECT SUM(price-tax) FROM Sale{p}"),
        "qty": ("SELECT SUM(qty), COUNT(qty) FROM Sale{p}",
                "SELECT SaleNo, AVG(qty) FROM Sale{p} GROUP BY SaleNo"),
    }
    preds = ("", " WHERE SaleNo BETWEEN 5 AND 45", " WHERE price >= 10.00",
             " WHERE note = 'red'")
    refused = 0
    for _ in range(60):
        attr = rnd.choice(sorted(shapes))
        pk = rnd.choice([row["SaleNo"] for row in oracle.rows["Sale"]
                         if row[attr] is not None])
        liar = rnd.choice(sorted(group_from_bitmap(wh.type1.bitmap("Sale", pk)).sg))
        text = rnd.choice(shapes[attr]).format(p=rnd.choice(preds))
        want = oracle.query(parse(text))
        rec = report_null(wh, liar, "Sale", pk, attr)
        assert execute(wh, text)[1] == want, text
        rg = rnd.choice([g for g in wh.rg_candidates() if liar in g])
        try:
            assert execute(wh, text, rg=rg)[1] == want, text
        except IntegrityError:
            refused += 1
        restore_record(wh, liar, "Sale", rec)
    assert refused > 30
    assert all(r.ok for r in wh.verify_all().values())


# aggregation against the plaintext evaluator


def _aggregation_pair(km):
    rnd = random.Random(40)
    product = Schema("Product", (
        Column("ProdNo", "key"),
        Column("cat", "string"),
    ))
    sale = Schema("Sale", (
        Column("SaleNo", "key"),
        Column("ProdNo", "fk", fk_table="Product"),
        Column("price", "real", scale=2),
        Column("tax", "real", scale=2),
        Column("qty", "int"),
        Column("note", "string"),
    ))
    derived = (
        DerivedColumn("Sale", "price2", "square", "price", scale=4),
        DerivedColumn("Sale", "qty2", "square", "qty"),
    )
    products = [{"ProdNo": pk, "cat": rnd.choice("abc")} for pk in range(1, 7)]
    sales = []
    for pk in range(1, 61):
        priced = rnd.random() > 0.1
        sales.append({
            "SaleNo": pk,
            "ProdNo": rnd.randint(1, 6),
            "price": Fraction(rnd.randint(-500, 9999), 100) if priced else None,
            "tax": Fraction(rnd.randint(0, 999), 100) if priced else None,
            "qty": rnd.randint(1, 9) if rnd.random() > 0.1 else None,
            "note": rnd.choice(("red", "blue", None)),
        })
    wh = Warehouse(km)
    wh.create_table(product, index_attrs=("cat",))
    wh.create_table(sale, index_attrs=("price", "qty", "note"), derived=derived)
    wh.load_rows("Product", products)
    wh.load_rows("Sale", sales)
    oracle = PlainWarehouse()
    oracle.add_table(product, products)
    oracle.add_table(sale, sales, derived=[
        ("price2", "square", "price", None, 4),
        ("qty2", "square", "qty", None, 0),
    ])
    return wh, oracle


def _random_query(rnd):
    preds = (
        "", " WHERE qty > 4", " WHERE qty <= 3", " WHERE price >= 10.00",
        " WHERE price BETWEEN 0.00 AND 50.00", " WHERE note = 'red'",
        " WHERE SaleNo BETWEEN 5 AND 45",
    )
    shapes = (
        "SELECT SUM({a}) FROM Sale{p}",
        "SELECT SUM(price+tax) FROM Sale{p}",
        "SELECT SUM(price-tax) FROM Sale{p}",
        "SELECT COUNT(*) FROM Sale{p}",
        "SELECT COUNT({a}) FROM Sale{p}",
        "SELECT AVG({a}) FROM Sale{p}",
        "SELECT VAR({a}), STDDEV({a}) FROM Sale{p}",
        "SELECT MIN({a}), MAX({a}), MEDIAN({a}) FROM Sale{p}",
        "SELECT P.cat, SUM(S.price) AS sp FROM Sale AS S "
        "JOIN Product AS P ON S.ProdNo=P.ProdNo{p} GROUP BY P.cat",
        "SELECT note, COUNT(*) AS c FROM Sale{p} GROUP BY note",
    )
    shape = rnd.choice(shapes)
    pred = rnd.choice(preds)
    if "JOIN" in shape:
        pred = pred.replace("qty", "S.qty").replace("price ", "S.price ") \
                   .replace("note", "S.note").replace("SaleNo", "S.SaleNo")
    return shape.format(a=rnd.choice(("price", "qty")), p=pred)


def test_aggregation_matches_plaintext_on_random_instances(km_big):
    wh, oracle = _aggregation_pair(km_big)
    rnd = random.Random(41)
    ran = 0
    for trial in range(120):
        if trial == 96:
            wh.inject_failure(3)  # the tail of the battery runs degraded
        text = _random_query(rnd)
        rg = None
        if rnd.random() < 0.3:
            pool = [g for g in wh.rg_candidates() if trial < 96 or 3 not in g]
            rg = rnd.choice(pool)
        assert execute(wh, text, rg=rg)[1] == oracle.query(parse(text)), text
        ran += 1
    wh.heal(3)
    assert ran == 120


# signature trees against brute force


def _assert_additive(tree):
    leaves = tree.levels[0]
    for level, idx, value in triples(tree):
        span = tree.w ** level
        assert value == sum(leaves[idx * span:(idx + 1) * span]) % tree.p


@pytest.mark.parametrize("w", (2, 3, 4))
def test_signature_tree_matches_brute_force_after_1000_ops(km_big, w):
    rnd = random.Random(w)
    marker = km_big.hf_star(1, bytes(8))
    st = SignatureTree(w, km_big.p)
    st.create_table("t0", marker)
    sizes = {"t0": 0}
    for _ in range(1000):
        roll = rnd.random()
        if roll < 0.05:
            name = f"t{len(sizes)}"
            st.create_table(name, marker)
            sizes[name] = 0
        elif roll < 0.65 or not any(sizes.values()):
            table = rnd.choice(sorted(sizes))
            st.insert_record(table, km_big.hf_star(1, rnd.randbytes(12)))
            sizes[table] += 1
        else:
            table = rnd.choice([t for t, c in sizes.items() if c])
            st.update_record(table, rnd.randrange(sizes[table]),
                             km_big.hf_star(1, rnd.randbytes(12)))
    _assert_additive(st.table_layer)
    for table, tree in st.record_trees.items():
        _assert_additive(tree)
        total = (marker + sum(tree.levels[0])) % st.p
        assert st.table_layer.leaf(st.table_pos[table]) == total


# cube refresh against rebuild


def _cube_fixture(km, seed):
    rnd = random.Random(seed)
    fact = Schema("F", (
        Column("Id", "key"),
        Column("d1", "int"),
        Column("d2", "int"),
        Column("d3", "int"),
        Column("price", "real", scale=2),
        Column("tax", "real", scale=2),
        Column("qty", "int"),
    ))
    def rows(start, count):
        return [
            {"Id": pk, "d1": rnd.randint(1, 3), "d2": rnd.randint(1, 4),
             "d3": rnd.randint(1, 2),
             "price": Fraction(rnd.randint(0, 9999), 100),
             "tax": Fraction(rnd.randint(0, 999), 100),
             "qty": rnd.randint(1, 9) if rnd.random() > 0.2 else None}
            for pk in range(start, start + count)
        ]
    sums = CubeSpec("sums", "F", (
        CubeHierarchy(("d1",)), CubeHierarchy(("d2",)), CubeHierarchy(("d3",)),
    ), (
        CubeMeasure("sum", "price"), CubeMeasure("sum", "qty"),
        CubeMeasure("sum", "price+tax"), CubeMeasure("sum", "price-tax"),
    ))
    mixed = CubeSpec("mixed", "F", (
        CubeHierarchy(("d1", "d2")),
    ), (
        CubeMeasure("sum", "price"), CubeMeasure("count"),
        CubeMeasure("count", "qty"), CubeMeasure("min", "price"),
        CubeMeasure("max", "price"), CubeMeasure("avg", "price"),
    ))
    def build(row_batches):
        wh = Warehouse(km)
        wh.create_table(fact, index_attrs=("d1", "d2", "d3", "price", "qty"))
        for batch in row_batches:
            wh.load_rows("F", batch)
        return wh
    return rows, (sums, mixed), build


def _levels(spec):
    per_axis = [
        [spec.hierarchies[i].attrs[:k] for k in range(len(spec.hierarchies[i].attrs) + 1)]
        for i in range(len(spec.hierarchies))
    ]
    return [
        tuple(a for part in combo for a in part)
        for combo in itertools.product(*per_axis)
    ]


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_cube_refresh_equals_rebuild_on_random_batches(km_big, seed):
    rows, specs, build = _cube_fixture(km_big, seed)
    base = rows(1, 8)
    batches = [rows(9, 3), rows(12, 5)]

    live = build([base])
    for spec in specs:
        cube_build(live, spec)
    loaded = [base]
    for batch in batches:
        live.load_rows("F", batch)
        loaded.append(batch)
        new_pks = [r["Id"] for r in batch]
        RECONSTRUCTIONS.reset()
        cube_refresh(live, specs[0], new_pks)
        assert RECONSTRUCTIONS.count == 0  # additive path, no cell opened
        cube_refresh(live, specs[1], new_pks)

        rebuilt = build(loaded)
        for spec in specs:
            cube_build(rebuilt, spec)
            for level in _levels(spec):
                assert cube_query(live, spec, level) == cube_query(rebuilt, spec, level), (
                    spec.name, level,
                )


# structural privacy


def test_structural_privacy_of_share_placement(km_big, km_toy):
    rnd = random.Random(7)
    wh = Warehouse(km_big)
    wh.create_table(SALE, index_attrs=())
    rows = _sale_rows(rnd, 1, 40)
    wh.load_rows("Sale", rows)

    # storage groups never reach the reconstruction threshold
    n, t = km_big.n, km_big.t
    for row in rows:
        bitmap = wh.type1.bitmap("Sale", row["SaleNo"])
        assert bitmap.count("1") == n - t + 2 == 3
    for tt in range(3, 12):
        for nn in range(tt, 2 * tt - 2):
            assert nn - tt + 2 < tt

    # any t-1 shares plus a guessed secret interpolate to a legal
    # degree < t polynomial, so the shares alone pin nothing
    km = km_toy
    wh_toy = Warehouse(km, bias=0)
    wh_toy.create_table(Schema("S", (Column("Id", "key"), Column("v", "int"))))
    secret = 123
    wh_toy.load_rows("S", [{"Id": 1, "v": secret}])
    group = group_from_bitmap(wh_toy.type1.bitmap("S", 1))
    holders = sorted(group.sg)[:km.t - 1]
    points = [
        (km.x_id(i), wh_toy.csps[i].fetch_share("S", 1, "v")) for i in holders
    ]
    consistent = signed = 0
    for candidate in range(km.p):
        poly = lagrange_interpolate(points + [(km.x_kd, candidate)], km.p)
        assert poly.degree < km.t
        assert all(poly_eval(poly, x) == y for x, y in points)
        consistent += 1
        if poly_eval(poly, km.x_ks) == km.he1(candidate):
            signed = candidate
    assert consistent == km.p  # every secret in the field fits the view
    assert signed == secret    # only the true one carries its signature
