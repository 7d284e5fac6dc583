"""Cost model: share volumes, pricing, VM tiers, reference sheets."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fvss.cost import (
    SCHEMES,
    VM_POWERS,
    ComputeReport,
    PricingPolicy,
    WorkloadProfile,
    access_profiles,
    cents,
    compute_cost,
    hours_to_clock,
    reference_pricing,
    share_volume,
    sharing_profiles,
    storage_comparison,
    storage_cost,
    vm_assign,
    volume_curves,
)
from fvss.errors import InvalidThreshold, OutOfRange, UnsupportedFeature


def test_vm_powers():
    assert VM_POWERS == {"sVM": 10**10, "mVM": 2 * 10**10, "lVM": 4 * 10**10}


# share volumes


def test_share_volume_families_at_reference_point():
    cases = {
        "signed-full": Fraction(1000),
        "full": Fraction(500),
        "multi-secret": Fraction(500, 3),
        "ramp": Fraction(125),
        "fvss": Fraction(300),
    }
    for scheme, total in cases.items():
        got_total, per_csp = share_volume(scheme, 5, 4, 100)
        assert got_total == total
        assert per_csp == (total / 5,) * 5
    assert round(share_volume("multi-secret", 5, 4, 100)[0]) == 167


def test_share_volume_weighted_split_is_exact():
    weights = ("99.8", "99.8", "99.8", "0.4", "0.2")
    total, per_csp = share_volume("fvss", 5, 4, 100, weights=weights)
    assert total == 300
    assert per_csp == tuple(Fraction(w) for w in weights)


def test_share_volume_bills_a_capped_provider_for_what_it_stores():
    """At weights 1,1,2,2,4 provider 5's share of the records would pass 1:
    placement stores every record there and the rest in proportion to
    the weights, and the bill follows."""
    total, per_csp = share_volume("fvss", 5, 4, 100, weights=(1, 1, 2, 2, 4))
    assert total == 300
    assert per_csp == tuple(100 * x for x in (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3),
                                              Fraction(2, 3), 1))


def test_share_volume_bills_the_zero_weight_providers_that_fill_in():
    """With two positive weights and groups of three, placement fills every
    group with the first zero-weight provider, which is billed for it."""
    assert share_volume("fvss", 5, 4, 100, weights=(1, 0, 0, 0, 2)) \
        == (300, (100, 100, 0, 0, 100))


@given(n=st.integers(3, 8), data=st.data(), volume=st.integers(1, 10**6))
def test_weighted_fvss_bill_splits_the_total_and_caps_each_provider(n, data, volume):
    t = data.draw(st.integers(2, n))
    weights = data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n).filter(any))
    total, per_csp = share_volume("fvss", n, t, volume, weights=weights)
    assert sum(per_csp) == total == (n - t + 2) * volume
    assert all(0 <= x <= volume for x in per_csp)


def test_share_volume_rejects_bad_input():
    with pytest.raises(UnsupportedFeature):
        share_volume("mystery", 5, 4, 100)
    with pytest.raises(InvalidThreshold):
        share_volume("fvss", 5, 6, 100)
    with pytest.raises(InvalidThreshold):
        share_volume("fvss", 5, 1, 100)
    with pytest.raises(OutOfRange):
        share_volume("fvss", 5, 4, 100, weights=(1, 2))
    with pytest.raises(OutOfRange):
        share_volume("fvss", 5, 4, 100, weights=(0, 0, 0, 0, 0))


@given(
    n=st.integers(3, 8),
    data=st.data(),
    volume=st.integers(1, 10**6),
)
def test_share_volume_always_splits_the_total(n, data, volume):
    t = data.draw(st.integers(2, n))
    for scheme in SCHEMES:
        total, per_csp = share_volume(scheme, n, t, volume)
        assert len(per_csp) == n
        assert sum(per_csp) == total
    assert share_volume("fvss", n, t, volume)[0] == (n - t + 2) * volume


# pricing and storage cost


def test_reference_pricing_shape():
    pricing = reference_pricing()
    assert pricing.n == 5
    assert pricing.storage == tuple(
        Fraction(s) for s in ("0.030", "0.040", "0.053", "0.120", "0.325")
    )
    assert pricing.vm_price("lVM", 3) == Fraction("0.230")
    assert pricing.vm_price("mVM", 3) == Fraction("0.163")


def test_pricing_validation():
    with pytest.raises(OutOfRange):
        PricingPolicy(("1",), ("1",), ("1",), ("1", "2"))
    with pytest.raises(OutOfRange):
        PricingPolicy(("-1",), ("1",), ("1",), ("1",))


def test_storage_cost_examples():
    pricing = reference_pricing()
    assert storage_cost((0, 0, 0, 0, 0), pricing) == Decimal("0.00")
    assert storage_cost((60,) * 5, pricing) == Decimal("34.08")
    assert storage_cost(("99.8", "99.8", "99.8", "0.4", "0.2"),
                        pricing) == Decimal("12.39")


def test_storage_comparison_sheet():
    rows = storage_comparison()
    assert [r.name for r in rows] == [
        "signed-full", "full", "multi-secret", "ramp",
        "fvss-uniform", "fvss-weighted",
    ]
    assert [r.total_gb for r in rows] == [1000, 500, 167, 125, 300, 300]
    assert [r.cost for r in rows] == [
        Decimal("113.60"), Decimal("56.80"), Decimal("19.31"),
        Decimal("14.77"), Decimal("34.08"), Decimal("12.39"),
    ]


# VM tiers


def test_vm_assign_thresholds():
    total = 10**15
    per_csp = (998 * 10**12, 6 * 10**14, 4 * 10**12, 0,
               8 * 10**14, 4 * 10**14, 399 * 10**12)
    assert vm_assign(per_csp, total) == (
        "lVM", "mVM", "sVM", None, "lVM", "mVM", "sVM",
    )
    with pytest.raises(OutOfRange):
        vm_assign((1,), 0)


# clocks


@pytest.mark.parametrize("seconds,clock", [
    (25000, "6:57"),    # 416.67 min rounds up
    (30000, "8:20"),    # exact
    (24950, "6:56"),
    (2500, "0:42"),
    (3000, "0:50"),
    (2495, "0:42"),
    (400, "0:07"),
    (200, "0:04"),
    (40, "0:01"),
    (20, "0:01"),
    (0, "0:00"),
])
def test_hours_to_clock(seconds, clock):
    assert hours_to_clock(Fraction(seconds, 3600)) == clock


# compute cost sheets


def _report(profiles, name) -> ComputeReport:
    profile = next(p for p in profiles if p.name == name)
    return compute_cost(profile, reference_pricing())


def test_sharing_full_replication():
    report = _report(sharing_profiles(), "full-replication")
    assert [line.tier for line in report.lines] == ["lVM"] * 5
    assert report.wall_clock == "6:57"
    assert report.total_dollars == Decimal("6.41")


def test_sharing_fvss_uniform():
    report = _report(sharing_profiles(), "fvss-uniform")
    assert [line.tier for line in report.lines] == ["mVM"] * 5
    assert report.wall_clock == "8:20"
    assert report.total_dollars == Decimal("4.40")


def test_sharing_fvss_weighted():
    report = _report(sharing_profiles(), "fvss-weighted")
    assert [line.tier for line in report.lines] == [
        "lVM", "lVM", "lVM", "sVM", "sVM",
    ]
    assert [line.clock for line in report.lines] == [
        "6:56", "6:56", "6:56", "0:07", "0:04",
    ]
    assert report.wall_clock == "6:56"
    assert report.total_dollars == Decimal("2.80")


def test_access_full_replication():
    report = _report(access_profiles(), "full-replication")
    assert report.wall_clock == "0:42"
    assert report.total_dollars == Decimal("0.48")


def test_access_fvss_uniform():
    report = _report(access_profiles(), "fvss-uniform")
    assert report.wall_clock == "0:50"
    assert report.total_dollars == Decimal("0.30")


def test_access_fvss_weighted():
    report = _report(access_profiles(), "fvss-weighted")
    lines = report.lines
    assert lines[2].tier is None and lines[2].hours == 0
    assert [line.clock for line in lines] == [
        "0:42", "0:42", "0:00", "0:01", "0:01",
    ]
    assert report.wall_clock == "0:42"
    assert report.total_dollars == Decimal("0.12")


def test_costs_use_exact_hours_not_clocks():
    # the weighted sharing total lands between the two rounding regimes
    report = _report(sharing_profiles(), "fvss-weighted")
    assert report.total == Fraction(24950, 3600) * Fraction("0.403") \
        + Fraction(1, 9) * Fraction("0.060") \
        + Fraction(1, 18) * Fraction("0.070")


def test_explicit_tiers_override_assignment():
    profile = WorkloadProfile("flat", 100, (100, 100))
    pricing = PricingPolicy(("0", "0"), ("1", "1"), ("2", "2"), ("4", "4"))
    report = compute_cost(profile, pricing, tiers=("sVM", "lVM"))
    assert report.lines[0].hours == 4 * report.lines[1].hours


# volume curves


def test_volume_curves_match_closed_forms():
    curves = volume_curves(volume=100)
    for n, total in curves["t=n"]["fvss"]:
        assert total == 200
    for n, total in curves["t=3"]["fvss"]:
        assert total == (n - 1) * 100
    for n, total in curves["t=n"]["signed-full"]:
        assert total == 2 * n * 100
    for n, total in curves["t=3"]["multi-secret"]:
        assert total == Fraction(n, 2) * 100
    for n, total in curves["t=n"]["ramp"]:
        assert total == 100
    for n, total in curves["t=3"]["full"]:
        assert total == n * 100


def test_cents_rounds_half_up():
    assert cents(Fraction(48125, 100000)) == Decimal("0.48")
    assert cents(Fraction(125, 10000)) == Decimal("0.01")
    assert cents(Fraction(15, 1000)) == Decimal("0.02")
