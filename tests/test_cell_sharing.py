"""Randomized equivalence of the cube cell sharing kernel.

`cube.share_cell_chunks` shares a batch of one cube column's field
elements, (cell pk, chunk index, chunk) triples, with every filler
ordinate from one seed MAC loop and each provider's shares from cached
coefficients; `share_cell_chunk` is that batch of one chunk, and
`cube._shared_column` shares a column of cell values (numbers, strings'
chunk tuples and NULLs) through one batch. Each battery checks them
against `tests/oracles.py`'s per-chunk reference: filler ordinates MACed
one at a time with `hmac.digest` under the master seed, and the
polynomial through the data point, its signature point and the fillers
solved by Gaussian elimination and evaluated at every provider. The
keys cover t = 2, with no fillers, t = 4 and a larger (11, 7).

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import P_DEFAULT, init_participants
from fvss.cube import _shared_column, share_cell_chunk, share_cell_chunks

from .oracles import cell_chunk_shares

SEED = bytes(range(32))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    KMS = [init_participants(n, t, seed=SEED, p=P_DEFAULT) for n, t in ((5, 2), (5, 4), (11, 7))]

NAMES = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1, max_size=8)
PKS = st.sampled_from((1, 2)) | st.integers(1, (1 << 64) - 1)
REFRESH = st.none() | st.integers(1, (1 << 64) - 1)


def _chunk(p):
    return st.sampled_from((0, 1, p - 1)) | st.integers(0, p - 1)


@settings(deadline=None)
@given(km=st.sampled_from(KMS), table=NAMES, attr=NAMES, refresh=REFRESH, data=st.data())
def test_share_cell_chunks_equal_the_reference(km, table, attr, refresh, data):
    """Each provider's column holds, per triple, the reference's share."""
    triples = data.draw(st.lists(st.tuples(PKS, st.integers(0, 40), _chunk(km.p)), max_size=8))
    want = [cell_chunk_shares(km, table, pk, attr, k, v, refresh) for pk, k, v in triples]
    assert share_cell_chunks(km, table, attr, triples, refresh) \
        == [[shares[i] for shares in want] for i in range(1, km.n + 1)]


@settings(deadline=None)
@given(km=st.sampled_from(KMS), table=NAMES, attr=NAMES, pk=PKS, k=st.integers(0, 40),
       refresh=REFRESH, data=st.data())
def test_share_cell_chunk_equals_the_reference(km, table, attr, pk, k, refresh, data):
    value = data.draw(_chunk(km.p))
    assert share_cell_chunk(km, table, pk, attr, k, value, refresh) \
        == cell_chunk_shares(km, table, pk, attr, k, value, refresh)


@settings(deadline=None)
@given(km=st.sampled_from(KMS), table=NAMES, attr=NAMES, string=st.booleans(),
       refresh=REFRESH, data=st.data())
def test_shared_column_equals_the_reference(km, table, attr, string, refresh, data):
    """A column of cell values, NULLs included: a number's share is the
    reference's share at chunk index 0, a string's the tuple of its
    chunks' shares at their indexes, a NULL's None."""
    chunk = _chunk(km.p)
    value = st.lists(chunk, min_size=1, max_size=5).map(tuple) if string else chunk
    pks = data.draw(st.lists(PKS, max_size=8, unique=True))
    chunks = [data.draw(st.none() | value) for _ in pks]
    want = []
    for pk, c in zip(pks, chunks):
        if c is None:
            want.append(None)
        elif string:
            per_chunk = [cell_chunk_shares(km, table, pk, attr, k, x, refresh)
                         for k, x in enumerate(c)]
            want.append({i: tuple(s[i] for s in per_chunk) for i in range(1, km.n + 1)})
        else:
            want.append(cell_chunk_shares(km, table, pk, attr, 0, c, refresh))
    assert _shared_column(km, table, attr, pks, chunks, refresh) \
        == [[None if w is None else w[i] for w in want] for i in range(1, km.n + 1)]
