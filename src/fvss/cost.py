"""Economics of running a shared warehouse across paid providers.

Pure arithmetic, no warehouse state: share-volume formulas per scheme
family, monthly storage pricing, VM-tier assignment by workload share,
and compute-time costing. Every intermediate stays an exact Fraction;
dollars round to cents and durations to whole minutes only for display.

The bundled reference pricing and workload presets reproduce a
five-provider cost sheet where uneven share placement (pushing volume
to the cheap providers) beats both full replication and even spreading.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from math import ceil
from typing import NamedTuple

from .errors import InvalidThreshold, OutOfRange, UnsupportedFeature
from .sharing import _exact as _rat, inclusion_probabilities

VM_POWERS = {            # records per second
    "sVM": 10**10,
    "mVM": 2 * 10**10,
    "lVM": 4 * 10**10,
}

SCHEMES = ("signed-full", "full", "multi-secret", "ramp", "fvss")


def cents(amount) -> Decimal:
    d = Decimal(amount.numerator) / Decimal(amount.denominator) \
        if isinstance(amount, Fraction) else Decimal(str(amount))
    return d.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


def hours_to_clock(hours: Fraction) -> str:
    """h:mm with partial minutes rounded up, the way wall time is billed."""
    minutes = ceil(_rat(hours) * 60)
    return f"{minutes // 60}:{minutes % 60:02d}"


class _PriceRows(NamedTuple):
    storage: tuple[Fraction, ...]
    svm: tuple[Fraction, ...]
    mvm: tuple[Fraction, ...]
    lvm: tuple[Fraction, ...]


class PricingPolicy(_PriceRows):
    """Per-provider monthly storage and hourly VM prices, all in dollars,
    kept as Fractions; construction checks them."""
    __slots__ = ()

    def __new__(cls, storage, svm, mvm, lvm):
        rows = tuple(tuple(_rat(x) for x in row) for row in (storage, svm, mvm, lvm))
        if len({len(row) for row in rows}) != 1:
            raise OutOfRange("price rows cover different provider counts")
        if any(x < 0 for row in rows for x in row):
            raise OutOfRange("negative price")
        return super().__new__(cls, *rows)

    @classmethod
    def _make(cls, iterable):   # so that _replace converts and checks too
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.storage)

    def vm_price(self, tier: str, i: int) -> Fraction:
        row = {"sVM": self.svm, "mVM": self.mvm, "lVM": self.lvm}[tier]
        return row[i - 1]


def reference_pricing() -> PricingPolicy:
    return PricingPolicy(
        storage=("0.030", "0.040", "0.053", "0.120", "0.325"),
        svm=("0.013", "0.059", "0.058", "0.060", "0.070"),
        # third mVM rate back-solved from the even-spread sharing total
        # of $4.40; the advertised 0.115 prices that run at $4.00
        mvm=("0.026", "0.079", "0.163", "0.120", "0.140"),
        lvm=("0.053", "0.120", "0.230", "0.240", "0.280"),
    )


# share volumes


def share_volume(scheme: str, n: int, t: int, volume, weights=None):
    """Total and per-provider GB a scheme family needs for `volume` GB.

    Families: signed-full 2nV, full nV, multi-secret nV/(t-1), ramp nV/t,
    fvss (n-t+2)V. Per-provider volume splits evenly unless weights are
    given. With weights, fvss bills provider i for V * pi_i, the share of
    records placement stores there (sharing.inclusion_probabilities): a
    provider whose weight would bill more than V is capped at V, and when
    fewer than n-t+2 weights are positive the zero-weight providers that
    fill in are billed V each. Another family splits its total in
    proportion to the weights.
    """
    if not 2 <= t <= n:
        raise InvalidThreshold(f"need 2 <= t <= n, got t={t} n={n}")
    v = _rat(volume)
    totals = {
        "signed-full": 2 * n * v,
        "full": n * v,
        "multi-secret": Fraction(n, t - 1) * v,
        "ramp": Fraction(n, t) * v,
        "fvss": (n - t + 2) * v,
    }
    if scheme not in totals:
        raise UnsupportedFeature(f"unknown scheme {scheme!r}; pick from {SCHEMES}")
    total = totals[scheme]
    if weights is None:
        per_csp = (total / n,) * n
    else:
        w = tuple(_rat(x) for x in weights)
        if len(w) != n or any(x < 0 for x in w) or not sum(w):
            raise OutOfRange(f"need {n} non-negative weights with a positive sum")
        if scheme == "fvss":
            pi = inclusion_probabilities(w, range(1, n + 1), n - t + 2)
            per_csp = tuple(v * pi[i] for i in range(1, n + 1))
        else:
            per_csp = tuple(total * x / sum(w) for x in w)
    return total, per_csp


def storage_cost(volumes, pricing: PricingPolicy) -> Decimal:
    """Monthly bill: each provider's GB times its storage rate, to cents."""
    exact = sum(
        (_rat(v) * p for v, p in zip(volumes, pricing.storage)),
        Fraction(0),
    )
    return cents(exact)


# compute costs


def vm_assign(per_csp, total) -> tuple:
    """VM tier per provider from its fraction of the original records:
    at least 0.8 rents a large VM, at least 0.4 a medium one, anything
    else a small one; a provider with no records rents nothing."""
    if total <= 0:
        raise OutOfRange("total records must be positive")
    out = []
    for count in per_csp:
        if count == 0:
            out.append(None)
            continue
        fraction = Fraction(count, total)
        if fraction >= Fraction(8, 10):
            out.append("lVM")
        elif fraction >= Fraction(4, 10):
            out.append("mVM")
        else:
            out.append("sVM")
    return tuple(out)


class WorkloadProfile(NamedTuple):
    """Records each provider processes; total is the original record
    count (sharing sigma or access gamma) that tier fractions divide,
    not the sum over providers, which counts replicated work."""
    name: str
    total: int
    per_csp: tuple[int, ...]


class ProviderCost(NamedTuple):
    records: int
    tier: str | None
    hours: Fraction
    dollars: Fraction

    @property
    def clock(self) -> str:
        return hours_to_clock(self.hours)


class ComputeReport(NamedTuple):
    name: str
    lines: tuple[ProviderCost, ...]

    @property
    def wall_hours(self) -> Fraction:
        return max(line.hours for line in self.lines)

    @property
    def wall_clock(self) -> str:
        return hours_to_clock(self.wall_hours)

    @property
    def total(self) -> Fraction:
        return sum((line.dollars for line in self.lines), Fraction(0))

    @property
    def total_dollars(self) -> Decimal:
        return cents(self.total)


def compute_cost(profile: WorkloadProfile, pricing: PricingPolicy,
                 tiers=None) -> ComputeReport:
    """Time and bill per provider: records over VM power, priced hourly.

    Costs come from exact hours; the h:mm clocks are display-only.
    """
    if tiers is None:
        tiers = vm_assign(profile.per_csp, profile.total)
    lines = []
    for i, (count, tier) in enumerate(zip(profile.per_csp, tiers), start=1):
        if tier is None or count == 0:
            lines.append(ProviderCost(count, None, Fraction(0), Fraction(0)))
            continue
        hours = Fraction(count, VM_POWERS[tier] * 3600)
        lines.append(ProviderCost(count, tier, hours,
                                  hours * pricing.vm_price(tier, i)))
    return ComputeReport(profile.name, tuple(lines))


# reference presets


class StorageRow(NamedTuple):
    name: str
    total_gb: Fraction
    per_csp: tuple[Fraction, ...]
    cost: Decimal


def storage_comparison(pricing: PricingPolicy | None = None):
    """Monthly storage bill of each scheme family for 100 GB of data,
    n=5, t=4. Per-provider volumes follow the reference cost sheet: the
    fractional families carry its rounded 34 and 26 GB figures, and the
    weighted fvss split leans on the three cheapest providers."""
    pricing = pricing or reference_pricing()
    rows = [
        ("signed-full", 1000, (200,) * 5),
        ("full", 500, (100,) * 5),
        ("multi-secret", 167, (34,) * 5),
        ("ramp", 125, (26,) * 5),
        ("fvss-uniform", 300, (60,) * 5),
        ("fvss-weighted", 300, ("99.8", "99.8", "99.8", "0.4", "0.2")),
    ]
    return tuple(
        StorageRow(name, _rat(total), tuple(_rat(v) for v in per_csp),
                   storage_cost(per_csp, pricing))
        for name, total, per_csp in rows
    )


def sharing_profiles() -> tuple[WorkloadProfile, ...]:
    """Sharing workloads for 10^15 records: full replication pushes every
    record to all five providers; fvss touches n-t+2 = 3 per record,
    either evenly or weighted toward the cheap providers."""
    sigma = 10**15
    return (
        WorkloadProfile("full-replication", sigma, (sigma,) * 5),
        WorkloadProfile("fvss-uniform", sigma, (6 * 10**14,) * 5),
        WorkloadProfile("fvss-weighted", sigma,
                        (998 * 10**12, 998 * 10**12, 998 * 10**12,
                         4 * 10**12, 2 * 10**12)),
    )


def access_profiles() -> tuple[WorkloadProfile, ...]:
    """Aggregation workloads for 10^14 matched records with provider 3
    out of the reconstruction group; each group member scans the matched
    records it stores."""
    gamma = 10**14
    return (
        WorkloadProfile("full-replication", gamma,
                        (gamma, gamma, 0, gamma, gamma)),
        WorkloadProfile("fvss-uniform", gamma,
                        (6 * 10**13, 6 * 10**13, 0, 6 * 10**13, 6 * 10**13)),
        WorkloadProfile("fvss-weighted", gamma,
                        (998 * 10**11, 998 * 10**11, 0,
                         4 * 10**11, 2 * 10**11)),
    )


def volume_curves(volume=1, n_values=(3, 4, 5, 6, 7)):
    """Total share volume of every scheme family as n grows, once with
    t = n and once with t fixed at 3."""
    out = {}
    for label, t_of in (("t=n", lambda n: n), ("t=3", lambda n: 3)):
        out[label] = {
            scheme: tuple(
                (n, share_volume(scheme, n, t_of(n), volume)[0])
                for n in n_values
            )
            for scheme in SCHEMES
        }
    return out
