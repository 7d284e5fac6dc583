"""Systematic πps placement against its one-record reference.

`sharing.storage_bitmaps` places a batch of records through one map from
a record's 64-bit draw to its storage group (`sharing.systematic_groups`),
built once per call, and one MAC and one bisect per pk. The battery holds
it pk by pk to `oracles.systematic_storage_group`, which walks the
cumulative inclusion probabilities in exact Fractions with one
hmac.digest per message, for every alive subset of providers, over pks
across [0, 2^64) and weights that are zero, fractional or large enough to
cap a provider at 1. It checks the draw-to-group map at every breakpoint
and one draw either side of it, the inclusion probabilities against a
second way of solving for them, that both refuse too few alive providers
alike, and that over 20,000 pks each provider stores a share of the
records within 4 binomial standard errors of its inclusion probability.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

import warnings
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import P_DEFAULT, init_participants
from fvss.errors import NotEnoughAliveCsps
from fvss.sharing import (
    inclusion_probabilities,
    select_storage_group,
    storage_bitmaps,
    systematic_groups,
)

from . import oracles

SEED = bytes(range(32))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    # (n, t): a storage group of n-t+2 = 3, 2 and 4 members
    KMS = [init_participants(n, t, seed=SEED, p=P_DEFAULT) for n, t in ((5, 4), (4, 4), (7, 5))]
KM = KMS[0]

WEIGHT = st.sampled_from((0, 0.0, 0.25, 0.5, 1, 1.5, 3, 50)) | st.floats(1e-3, 50) \
    | st.fractions(Fraction(1, 100), 20)


def _alive_subsets(km):
    for size in range(km.n + 1):
        yield from combinations(range(1, km.n + 1), size)


@settings(deadline=None)
@given(km=st.sampled_from(KMS), data=st.data())
def test_batched_placement_equals_the_one_record_reference(km, data):
    pks = data.draw(st.lists(st.integers(0, (1 << 64) - 1) | st.integers(0, 50), max_size=12))
    weights = data.draw(st.lists(WEIGHT, min_size=km.n, max_size=km.n))
    for alive in _alive_subsets(km):
        if len(alive) < km.n - km.t + 2:
            with pytest.raises(NotEnoughAliveCsps) as got:
                storage_bitmaps(pks, weights, alive, km)
            with pytest.raises(NotEnoughAliveCsps) as want:
                oracles.systematic_storage_group(0, weights, alive, km)
            assert str(got.value) == str(want.value)
            continue
        assert storage_bitmaps(pks, weights, alive, km) == [
            oracles.systematic_storage_group(pk, weights, alive, km).bitmap for pk in pks
        ]
        for pk in pks[:1]:
            assert select_storage_group(pk, weights, alive, km) \
                == oracles.systematic_storage_group(pk, weights, alive, km)


@settings(deadline=None)
@given(km=st.sampled_from(KMS), data=st.data())
def test_inclusion_probabilities_cap_at_one_and_sum_to_the_group_size(km, data):
    weights = data.draw(st.lists(WEIGHT, min_size=km.n, max_size=km.n))
    k = km.n - km.t + 2
    for alive in _alive_subsets(km):
        if len(alive) < k:
            continue
        pi = inclusion_probabilities(weights, alive, k)
        assert pi == oracles.inclusion_probabilities(weights, alive, k)
        assert sorted(pi) == list(alive)
        assert sum(pi.values()) == k
        assert all(0 <= p <= 1 for p in pi.values())


@settings(deadline=None)
@given(km=st.sampled_from(KMS), data=st.data())
def test_the_draw_to_group_map_at_every_breakpoint_and_either_side(km, data):
    weights = data.draw(st.lists(WEIGHT, min_size=km.n, max_size=km.n))
    for alive in _alive_subsets(km):
        if len(alive) < km.n - km.t + 2:
            continue
        cuts, bitmaps = systematic_groups(weights, alive, km)
        assert len(bitmaps) == len(cuts) + 1 <= len(alive)
        assert list(cuts) == sorted(cuts)
        breaks = oracles.systematic_breakpoints(weights, alive, km)
        for v in {b + d for b in [*breaks, *cuts, 1 << 64] for d in (-1, 0, 1)}:
            if 0 <= v < 1 << 64:
                assert bitmaps[bisect_right(cuts, v)] \
                    == oracles.systematic_group_at(v, weights, alive, km).bitmap, v


@pytest.mark.parametrize("weights, alive", [
    ((1, 1, 1, 1, 1), (1, 2, 3, 4, 5)),
    ((1, 1, 2, 2, 4), (1, 2, 3, 4, 5)),
    ((1, 1, 2, 2, 4), (1, 2, 3, 4)),     # provider 5 failed: 1/2, 1/2, 1, 1
    ((1, 1, 1, 1, 1), (1, 2, 4, 5)),     # provider 3 failed: 3/4 each
])
def test_each_provider_stores_its_inclusion_probability(weights, alive):
    """Over 20,000 pks each provider's fraction of the records lies within
    4 binomial standard errors of pi_i (exactly pi_i when it is 0 or 1),
    and every tenth pk's group is the reference's."""
    count = 20_000
    pks = range(count)
    bitmaps = storage_bitmaps(pks, weights, alive, KM)
    assert bitmaps[::10] == [oracles.systematic_storage_group(pk, weights, alive, KM).bitmap
                             for pk in pks[::10]]
    pi = inclusion_probabilities(weights, alive, 3)
    for i in range(1, KM.n + 1):
        share = Fraction(sum(bitmap[i - 1] == "1" for bitmap in bitmaps), count)
        p = pi.get(i, 0)
        assert abs(share - p) <= 4 * sqrt(p * (1 - p) / count), (i, float(share), p)


def test_a_capped_provider_stores_every_record():
    """At weights 1,1,2,2,4 provider 5's c * w_i reaches 1: it stores every
    record, and the others store in proportion to their weights."""
    pi = inclusion_probabilities((1, 1, 2, 2, 4), range(1, 6), 3)
    assert list(pi.values()) == [Fraction(1, 3), Fraction(1, 3), Fraction(2, 3),
                                 Fraction(2, 3), 1]
    assert all(bitmap[4] == "1" for bitmap in storage_bitmaps(range(500), (1, 1, 2, 2, 4),
                                                               range(1, 6), KM))


def test_zero_weight_providers_fill_in_by_index_without_a_draw():
    """With at most n-t+2 weighted providers alive every pk gets the same
    group, the zero-weight ones filling it by ascending index: the map
    has no cut."""
    assert systematic_groups((0, 0, 1, 0, 1), range(1, 6), KM) == ((), ("10101",))
    assert systematic_groups((0, 0, 1, 0, 1), (2, 3, 4, 5), KM) == ((), ("01101",))
    assert storage_bitmaps([1, 2, 3], (0, 0, 1, 1, 1), range(1, 6), KM) == ["00111"] * 3
