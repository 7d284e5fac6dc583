"""Randomized equivalence of batched placement.

`sharing.storage_bitmaps` draws the storage groups of a batch of records
at once, with the per-provider message tails, exponents and MAC states
hoisted out of the pk loop. The battery checks it pk by pk against the
one-record draw it replaced (`tests/oracles.py`), for every alive subset
of providers, over pks across [0, 2^64) and weights that are fractional,
zero or mixed, and checks that both refuse too few alive providers alike.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

import warnings
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import P_DEFAULT, init_participants
from fvss.errors import NotEnoughAliveCsps
from fvss.sharing import select_storage_group, storage_bitmaps

from . import oracles

SEED = bytes(range(32))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    # (n, t): a storage group of n-t+2 = 3, 2 and 4 members
    KMS = [init_participants(n, t, seed=SEED, p=P_DEFAULT) for n, t in ((5, 4), (4, 4), (7, 5))]

WEIGHT = st.sampled_from((0, 0.0, 0.25, 0.5, 1, 1.5, 3)) | st.floats(1e-3, 50) \
    | st.fractions(Fraction(1, 100), 20)


@settings(deadline=None)
@given(km=st.sampled_from(KMS), data=st.data())
def test_batched_placement_equals_the_one_record_draw(km, data):
    pks = data.draw(st.lists(st.integers(0, (1 << 64) - 1) | st.integers(0, 50), max_size=12))
    weights = data.draw(st.lists(WEIGHT, min_size=km.n, max_size=km.n))
    for size in range(km.n + 1):
        for alive in combinations(range(1, km.n + 1), size):
            if size < km.n - km.t + 2:
                with pytest.raises(NotEnoughAliveCsps) as got:
                    storage_bitmaps(pks, weights, alive, km)
                with pytest.raises(NotEnoughAliveCsps) as want:
                    oracles.select_storage_group(0, weights, alive, km)
                assert str(got.value) == str(want.value)
                continue
            assert storage_bitmaps(pks, weights, alive, km) == [
                oracles.select_storage_group(pk, weights, alive, km).bitmap for pk in pks
            ]
            for pk in pks[:1]:
                assert select_storage_group(pk, weights, alive, km) \
                    == oracles.select_storage_group(pk, weights, alive, km)
