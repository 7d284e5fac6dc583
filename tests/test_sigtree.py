import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import SignatureTree, WaryTree
from fvss.errors import DuplicateTable, UnknownRecordPosition, UnknownTable
from fvss.provider import _leaves_text, _parse_leaves

from .oracles import tree_levels, triples

P = 251


def _assert_matches_oracle(tree: WaryTree, leaves, w):
    want = tree_levels(leaves, w, P) if leaves else [[]]
    got = [list(level) for level in tree.levels]
    assert got == want


def test_empty_tree():
    tree = WaryTree(3, P)
    assert tree.root == 0
    assert tree.leaf_count == 0


def test_branching_validation():
    with pytest.raises(ValueError):
        WaryTree(1, P)


def test_append_matches_whole_level_recompute():
    for w in (2, 3, 4):
        tree = WaryTree(w, P)
        leaves = []
        rng = random.Random(w)
        for _ in range(40):
            leaf = rng.randrange(P)
            tree.extend([leaf])
            leaves.append(leaf)
            _assert_matches_oracle(tree, leaves, w)


def test_fourth_leaf_grows_a_level():
    tree = WaryTree(3, P)
    for v in (10, 20, 30):
        tree.extend([v])
    assert len(tree.levels) == 2
    assert tree.root == 60
    tree.extend([40])
    assert len(tree.levels) == 3
    assert tree.root == 100


def test_update_then_revert_restores_root():
    tree = WaryTree(3, P)
    for v in range(9):
        tree.extend([v * 7 % P])
    before = tree.root
    tree.add_delta(4, 200 - tree.leaf(4))
    assert tree.root != before
    tree.add_delta(4, 4 * 7 % P - tree.leaf(4))
    assert tree.root == before


def test_zero_delta_is_identity():
    tree = WaryTree(2, P)
    for v in (5, 6, 7):
        tree.extend([v])
    snapshot = [list(level) for level in tree.levels]
    tree.add_delta(1, 0)
    assert [list(level) for level in tree.levels] == snapshot


def test_triples_round_trip():
    """A tree saved as its leaves' triples and rebuilt from them by
    from_leaves has every level back; the triples of an older save, all
    levels, give the same tree."""
    tree = WaryTree(3, P)
    for v in range(11):
        tree.extend([v * v % P])
    older = [f"{level}\t{idx}\t{value}" for level, idx, value in triples(tree)]
    for lines in (_leaves_text(tree.levels[0]).splitlines(), older):
        rebuilt = WaryTree.from_leaves(3, P, _parse_leaves("t.sigtree", lines))
        assert rebuilt.levels == tree.levels == tree_levels(tree.levels[0], 3, P)


def test_random_ops_match_oracle():
    rng = random.Random(99)
    for w in (2, 3, 4):
        tree = WaryTree(w, P)
        leaves = []
        for _ in range(1000):
            if leaves and rng.random() < 0.4:
                g = rng.randrange(len(leaves))
                v = rng.randrange(P)
                tree.add_delta(g, v - tree.leaf(g))
                leaves[g] = v
            else:
                v = rng.randrange(P)
                tree.extend([v])
                leaves.append(v)
        _assert_matches_oracle(tree, leaves, w)


@given(st.integers(2, 5), st.integers(0, 60), st.integers(0, 60), st.randoms())
@settings(max_examples=150, deadline=None)
def test_extend_equals_repeated_append(w, start, size, rng):
    values = [rng.randrange(3 * P) for _ in range(start + size)]
    one_by_one = WaryTree(w, P)
    for v in values:
        one_by_one.extend([v])
    batched = WaryTree.from_leaves(w, P, values[:start])
    assert batched.extend(values[start:]) == start
    assert batched.levels == one_by_one.levels


def test_extend_every_size_and_fan_out():
    """Every w in 2..5, every start and extend size in 0..60."""
    for w in range(2, 6):
        for start in range(0, 61):
            leaves = [(start * 31 + k * 17) % P for k in range(start + 60)]
            one_by_one = WaryTree(w, P)
            expected = []
            for k, v in enumerate(leaves):
                if k >= start:
                    expected.append([list(level) for level in one_by_one.levels])
                one_by_one.extend([v])
            expected.append(one_by_one.levels)
            for size in range(0, 61):
                batched = WaryTree(w, P)
                batched.extend(leaves[:start])
                batched.extend(leaves[start:start + size])
                assert batched.levels == expected[size], (w, start, size)


def test_extend_keeps_a_corrupted_node_corrupted():
    """Existing parents take their children's deltas, not a recomputed
    sum, so a node edited out of band still reads wrong afterwards,
    exactly as after one-by-one appends."""
    trees = []
    for extend in (True, False):
        tree = WaryTree.from_leaves(3, P, range(1, 11))
        tree.levels[1][3] = (tree.levels[1][3] + 5) % P
        tree.levels[2][0] = (tree.levels[2][0] + 7) % P
        more = list(range(40, 60))
        if extend:
            tree.extend(more)
        else:
            for v in more:
                tree.extend([v])
        trees.append(tree)
    batched, one_by_one = trees
    assert batched.levels == one_by_one.levels
    honest = WaryTree.from_leaves(3, P, [*range(1, 11), *range(40, 60)])
    assert batched.levels[1][3] == (honest.levels[1][3] + 5) % P


# two-layer signature trees


def _sig(km, blob):
    """CSP 2's leaf signature of blob, as the client computes it."""
    return km.hf_star(2, blob)


def _marker(km):
    """CSP 2's table-layer marker, as the client computes it."""
    return km.hf_star(2, bytes(8))


def _tree(km, tables=("a",)):
    st = SignatureTree(3, km.p)
    for t in tables:
        st.create_table(t, _marker(km))
    return st


def test_duplicate_table_rejected(km_toy):
    st = _tree(km_toy)
    with pytest.raises(DuplicateTable):
        st.create_table("a", _marker(km_toy))


def test_unknown_table_rejected(km_toy):
    st = _tree(km_toy)
    with pytest.raises(UnknownTable):
        st.insert_record("zzz", _sig(km_toy, b"x"))


def test_table_leaf_is_marker_plus_record_sum(km_toy):
    st = _tree(km_toy, ("a", "b"))
    blobs = [b"r1", b"r2", b"r3"]
    for blob in blobs:
        st.insert_record("a", _sig(km_toy, blob))
    want = (_marker(km_toy) + sum(_sig(km_toy, b) for b in blobs)) % km_toy.p
    assert st.table_layer.leaf(0) == want
    assert st.table_layer.leaf(1) == _marker(km_toy)  # b untouched


def test_update_keeps_both_layers_consistent(km_toy):
    st = _tree(km_toy)
    for i in range(10):
        st.insert_record("a", _sig(km_toy, bytes([i])))
    st.update_record("a", 3, _sig(km_toy, b"patched"))
    auth = [_sig(km_toy, bytes([i])) if i != 3 else _sig(km_toy, b"patched")
            for i in range(10)]
    assert st.verify({"a": auth}, _marker(km_toy)).ok


def test_verify_clean_inspects_one_node(km_toy):
    st = _tree(km_toy, ("a", "b"))
    for i in range(20):
        st.insert_record("a", _sig(km_toy, bytes([i])))
    auth = {"a": [_sig(km_toy, bytes([i])) for i in range(20)], "b": []}
    report = st.verify(auth, _marker(km_toy))
    assert report.ok
    assert report.inspected == 1


def test_single_tamper_in_81_leaves_inspects_thirteen(km_toy):
    st = _tree(km_toy)
    blobs = [bytes([i, i + 1]) for i in range(81)]
    for blob in blobs:
        st.insert_record("a", _sig(km_toy, blob))
    auth = [_sig(km_toy, b) for b in blobs]
    auth[53] = (auth[53] + 1) % km_toy.p  # stored side now looks tampered
    report = st.verify({"a": auth}, _marker(km_toy))
    assert not report.ok
    assert [(e.table, e.position) for e in report.entries] == [("a", 53)]
    # 1 top comparison + 4 levels x 3 children on the way down
    assert report.inspected == 13


def test_double_tamper_two_tables(km_toy):
    st = _tree(km_toy, ("a", "b"))
    for i in range(9):
        st.insert_record("a", _sig(km_toy, bytes([i])))
        st.insert_record("b", _sig(km_toy, bytes([i + 100])))
    auth = {
        "a": [_sig(km_toy, bytes([i])) for i in range(9)],
        "b": [_sig(km_toy, bytes([i + 100])) for i in range(9)],
    }
    auth["a"][2] = (auth["a"][2] + 1) % km_toy.p
    auth["b"][7] = (auth["b"][7] + 5) % km_toy.p
    report = st.verify(auth, _marker(km_toy))
    found = sorted((e.table, e.position) for e in report.entries)
    assert found == [("a", 2), ("b", 7)]


def test_scoped_verify_single_table(km_toy):
    st = _tree(km_toy, ("a", "b"))
    for i in range(5):
        st.insert_record("a", _sig(km_toy, bytes([i])))
    auth = [_sig(km_toy, bytes([i])) for i in range(5)]
    assert st.verify({"a": auth}, _marker(km_toy), scope="a").ok
    auth[0] = (auth[0] + 1) % km_toy.p
    report = st.verify({"a": auth}, _marker(km_toy), scope="a")
    assert [(e.table, e.position) for e in report.entries] == [("a", 0)]


def test_table_scope_localizes_a_single_position(km_toy):
    st = _tree(km_toy)
    for i in range(5):
        st.insert_record("a", _sig(km_toy, bytes([i])))
    auth = [_sig(km_toy, bytes([i])) for i in range(5)]
    report = st.verify({"a": auth}, _marker(km_toy), scope="a")
    assert report.ok and report.inspected == 1
    auth[2] = (auth[2] + 1) % km_toy.p
    report = st.verify({"a": auth}, _marker(km_toy), scope="a")
    assert not report.ok
    assert [(e.table, e.position) for e in report.entries] == [("a", 2)]


@pytest.mark.parametrize("stored,held", [(9, 10), (10, 9), (0, 3), (3, 0), (27, 29), (28, 26)])
def test_leaf_count_mismatch_reports_each_missing_or_extra_position(km_big, stored, held):
    """The provider holds `held` records under a tree that covers `stored`:
    every position only one side has is a breach, and nothing raises."""
    st = _tree(km_big, ("a", "b"))
    blobs = [bytes([i]) for i in range(max(stored, held))]
    for blob in blobs[:stored]:
        st.insert_record("a", _sig(km_big, blob))
    auth = {"a": [_sig(km_big, b) for b in blobs[:held]], "b": []}
    want = list(range(min(stored, held), max(stored, held)))
    for scope in ("whole", "a"):
        report = st.verify(auth, _marker(km_big), scope)
        assert sorted((e.table, e.position) for e in report.entries) == [("a", g) for g in want]


def test_stored_nodes_that_disagree_with_each_other_never_read_ok(km_big):
    st = _tree(km_big, ("a", "b"))
    for i in range(5):
        st.insert_record("a", _sig(km_big, bytes([i])))
    auth = {"a": [_sig(km_big, bytes([i])) for i in range(5)], "b": []}
    st.record_trees["a"].levels[-1][0] += 1   # a root that is not its children's sum
    report = st.verify(auth, _marker(km_big), "a")
    assert [(e.table, e.position) for e in report.entries] == [("a", None)]
    st.record_trees["a"].levels[-1][0] -= 1
    st.table_layer.add_delta(1, 7)           # b's layer leaf matches no records
    report = st.verify(auth, _marker(km_big))
    assert [(e.table, e.position) for e in report.entries] == [(None, None)]


def test_leaf_out_of_range(km_toy):
    st = _tree(km_toy)
    st.insert_record("a", _sig(km_toy, b"only"))
    with pytest.raises(UnknownRecordPosition):
        st.record_trees["a"].leaf(5)


def test_tamper_then_untamper_is_invisible(km_toy):
    # additive scheme: restoring the exact bytes restores the signature
    st = _tree(km_toy)
    st.insert_record("a", _sig(km_toy, b"v"))
    auth = [_sig(km_toy, b"v")]
    assert st.verify({"a": auth}, _marker(km_toy)).ok



@given(st.integers(2, 4), st.integers(0, 3 * P),
       st.lists(st.tuples(st.sampled_from("cinur"), st.integers(0, 2),
                          st.lists(st.integers(0, 3 * P), max_size=12)), max_size=25))
@settings(max_examples=150, deadline=None)
def test_every_entry_point_keeps_both_layers_a_recomputation(w, marker, ops):
    """create_table, insert_record(s), update_records and reset_records
    over leaf signatures and a marker handed in, in any order: each record
    tree equals its leaves' whole-level recomputation, each table's layer
    leaf is the marker plus its leaves' sum, and verify reads ok."""
    tree = SignatureTree(w, P)
    leaves: dict[str, list[int]] = {}
    for op, k, sigs in ops:
        table = f"t{k}"
        if table not in leaves:
            tree.create_table(table, marker)
            leaves[table] = []
        held = leaves[table]
        if op == "i" and sigs:
            assert tree.insert_record(table, sigs[0]) == len(held)
            held.append(sigs[0] % P)
        elif op == "n":
            assert tree.insert_records(table, sigs) == len(held)
            held += [v % P for v in sigs]
        elif op == "u" and held:
            picked = dict(zip([v % len(held) for v in sigs], sigs))   # distinct positions
            tree.update_records(table, list(picked), list(picked.values()))
            for g, v in picked.items():
                held[g] = v % P
        elif op == "r":
            tree.reset_records(table, sigs, marker)
            leaves[table] = [v % P for v in sigs]
    for table, held in leaves.items():
        _assert_matches_oracle(tree.record_trees[table], held, w)
        assert tree.table_layer.leaf(tree.table_pos[table]) == (marker + sum(held)) % P
    assert tree.verify(leaves, marker).ok
