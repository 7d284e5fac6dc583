"""Additive w-ary signature trees, one per CSP.

Every internal node holds the mod-p sum of its children, so the root is
the sum of all leaf signatures. Two layers: a record tree per table whose
leaves are HF*_i(record bytes), and a table layer whose leaf j carries
the marker HF*_i(0^8) plus the j-th table's record-signature total. The
tree takes these leaf signatures and markers from the client and holds
no key. A tree grows only through `WaryTree.extend` (one leaf is a batch
of one) and changes only by deltas; a batch of appends or of updates
changes each touched node once, one update its root path. Verification
walks top-down and only descends into children whose stored sum
disagrees with an authoritative recomputation, which pins a breach to
its exact leaf in about w * depth comparisons.

A provider saves only the leaves of both layers; `WaryTree.from_leaves`
rebuilds the sums above them at the fan-out the store is loaded with.

The tree is deliberately not hash-chained: additivity is what lets a
record update touch O(depth) nodes, and compensating double edits are the
inner signature's problem, not this layer's.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DuplicateTable, UnknownRecordPosition, UnknownTable


class WaryTree:
    """Append-only additive tree; levels[0] is the leaf level."""

    def __init__(self, w: int, p: int):
        if w < 2:
            raise ValueError(f"fan-out must be >= 2, got {w}")
        self.w = w
        self.p = p
        self.levels: list[list[int]] = [[]]

    @classmethod
    def from_leaves(cls, w: int, p: int, leaves) -> "WaryTree":
        tree = cls(w, p)
        tree.extend(leaves)
        return tree

    @property
    def leaf_count(self) -> int:
        return len(self.levels[0])

    @property
    def depth(self) -> int:
        """Node levels including the leaves."""
        return len(self.levels) if self.levels[0] else 0

    @property
    def root(self) -> int:
        if not self.levels[0]:
            return 0
        return self.levels[-1][0]

    def leaf(self, g: int) -> int:
        if not 0 <= g < len(self.levels[0]):
            raise UnknownRecordPosition(f"no leaf {g}")
        return self.levels[0][g]

    def extend(self, values) -> int:
        """Append leaves in order, equal to extending by one leaf at a
        time; returns the position of the first. Each touched parent changes
        once: an existing one by the sum of its children's deltas, a new
        one is the sum of its children."""
        p, w, levels = self.p, self.w, self.levels
        nodes = levels[0]
        lo = start = len(nodes)
        deltas = [v % p for v in values]
        nodes.extend(deltas)
        level = 0
        while deltas and not (len(nodes) == 1 and level == len(levels) - 1):
            if level + 1 == len(levels):
                levels.append([])
            upper = levels[level + 1]
            existing = len(upper)
            hi = lo + len(deltas)
            up_deltas = []
            for parent in range(lo // w, (hi - 1) // w + 1):
                first = parent * w
                if parent < existing:
                    a, b = max(lo, first), min(hi, first + w)
                    d = sum(deltas[a - lo:b - lo]) % p
                    upper[parent] = (upper[parent] + d) % p
                else:
                    d = sum(nodes[first:first + w]) % p
                    upper.append(d)
                up_deltas.append(d)
            nodes, lo, deltas = upper, lo // w, up_deltas
            level += 1
        return start

    def add_delta(self, g: int, delta: int):
        if not 0 <= g < len(self.levels[0]):
            raise UnknownRecordPosition(f"no leaf {g}")
        delta %= self.p
        idx = g
        for level in range(len(self.levels)):
            self.levels[level][idx] = (self.levels[level][idx] + delta) % self.p
            idx //= self.w

    def add_deltas(self, deltas):
        """add_delta of every (leaf, delta) pair, each touched node
        changed once by the sum of its deltas; UnknownRecordPosition,
        before any change, for a leaf the tree lacks."""
        count = len(self.levels[0])
        per_node: dict[int, int] = {}
        for g, delta in deltas:
            if not 0 <= g < count:
                raise UnknownRecordPosition(f"no leaf {g}")
            per_node[g] = per_node.get(g, 0) + delta
        if len(per_node) == 1:
            # one leaf, as every in-place update is: the root path, without per-level maps
            self.add_delta(*per_node.popitem())
            return
        p, w = self.p, self.w
        for nodes in self.levels:
            parents: dict[int, int] = {}
            for idx, delta in per_node.items():
                nodes[idx] = (nodes[idx] + delta) % p
                parents[idx // w] = parents.get(idx // w, 0) + delta
            per_node = parents


class BreachEntry(NamedTuple):
    """A record position whose stored signature disagrees, or is missing
    or extra. position is None when the stored nodes above the records
    disagree and no record does; table is None for the table layer."""
    table: str | None
    position: int | None
    path: tuple[tuple[int, int], ...]  # (level, index) pairs walked, root first


class BreachReport:
    """The breaches a verification found, filled in as it descends, and
    the nodes it inspected; compared by value."""

    def __init__(self, entries: list[BreachEntry] | None = None, inspected: int = 0):
        self.entries = [] if entries is None else entries
        self.inspected = inspected

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.inspected) == (other.entries, other.inspected)

    def __repr__(self) -> str:
        return f"BreachReport(entries={self.entries!r}, inspected={self.inspected!r})"

    @property
    def ok(self) -> bool:
        return not self.entries


class SignatureTree:
    """Both layers for one CSP, plus verification against recomputed leaves."""

    def __init__(self, w: int, p: int):
        self.w = w
        self.p = p
        self.table_layer = WaryTree(w, p)
        self.record_trees: dict[str, WaryTree] = {}
        self.table_pos: dict[str, int] = {}
        self.table_order: list[str] = []

    @property
    def root(self) -> int:
        return self.table_layer.root

    def create_table(self, table: str, marker: int):
        if table in self.record_trees:
            raise DuplicateTable(table)
        self.record_trees[table] = WaryTree(self.w, self.p)
        self.table_pos[table] = self.table_layer.extend([marker])
        self.table_order.append(table)

    def insert_records(self, table: str, sigs) -> int:
        """Append one leaf per record signature, in order, and add their
        total to the table's layer leaf; returns the first position."""
        tree = self._tree(table)
        pos = tree.extend(sigs)
        self.table_layer.add_delta(self.table_pos[table], sum(sigs))
        return pos

    def insert_record(self, table: str, sig: int) -> int:
        return self.insert_records(table, [sig])

    def update_records(self, table: str, positions, sigs):
        """Set the leaves at positions (distinct) to their new signatures:
        one pass over the record tree, then one patch of the table's layer
        leaf by the total change."""
        tree = self._tree(table)
        p = self.p
        deltas = [(g, (sig - tree.leaf(g)) % p) for g, sig in zip(positions, sigs)]
        tree.add_deltas(deltas)
        self.table_layer.add_delta(self.table_pos[table], sum(d for _, d in deltas))

    def update_record(self, table: str, g: int, sig: int):
        self.update_records(table, [g], [sig])

    def reset_records(self, table: str, sigs, marker: int):
        """Replace a table's record tree by one over sigs and set its layer
        leaf to the marker plus the new root, whatever it held before."""
        self._tree(table)   # UnknownTable for a table it lacks
        tree = self.record_trees[table] = WaryTree.from_leaves(self.w, self.p, sigs)
        g = self.table_pos[table]
        self.table_layer.add_delta(g, marker + tree.root - self.table_layer.leaf(g))

    def _tree(self, table: str) -> WaryTree:
        try:
            return self.record_trees[table]
        except KeyError:
            raise UnknownTable(table) from None

    # verification

    def verify(self, authoritative: dict[str, list[int]], marker: int,
               scope: str = "whole") -> BreachReport:
        """Compare stored sums against trees rebuilt from authoritative leaf
        signatures and the marker, descending only where they disagree.

        scope is "whole" (every table) or a table name. authoritative maps
        table -> leaf signatures recomputed from the actual stored records;
        it must cover the scope. A table scope's one top check also needs
        the table's layer leaf to be the marker plus the recomputed root,
        which catches a record rolled back with its saved leaf. Every
        stored-node comparison counts toward report.inspected, the top
        check included. A failed top check always leaves at least one entry.
        """
        report = BreachReport()

        def auth_tree(table: str) -> WaryTree:
            return WaryTree.from_leaves(self.w, self.p, authoritative[table])

        if scope == "whole":
            auth_tables = {t: auth_tree(t) for t in self.table_order}
            layer_leaves = [
                (marker + auth_tables[t].root) % self.p
                for t in self.table_order
            ]
            auth_layer = WaryTree.from_leaves(self.w, self.p, layer_leaves)
            report.inspected += 1
            failed = self.table_layer.root != auth_layer.root
            if failed:
                for leaf_idx, path in self._descend(self.table_layer, auth_layer, report):
                    table = self.table_order[leaf_idx]
                    for g, rec_path in self._descend(self._tree(table), auth_tables[table],
                                                     report):
                        report.entries.append(BreachEntry(table, g, path + rec_path))
            where, top = None, self.table_layer
        else:
            top, auth = self._tree(scope), auth_tree(scope)
            report.inspected += 1
            failed = (top.root != auth.root or self.table_layer.leaf(self.table_pos[scope])
                      != (marker + auth.root) % self.p)
            if failed:
                for g, rec_path in self._descend(top, auth, report):
                    report.entries.append(BreachEntry(scope, g, rec_path))
            where = scope
        if failed and not report.entries:
            # the stored nodes disagree with each other, not with any record
            report.entries.append(BreachEntry(where, None, ((len(top.levels) - 1, 0),)))
        return report

    def _descend(self, stored: WaryTree, auth: WaryTree, report: BreachReport):
        """Walk failing nodes from the root down; returns (leaf index, path)
        of each failing leaf, then of each leaf only auth has.

        The subtree root is already known bad when this is called, so only
        children are compared on the way down. A node auth lacks fails: a
        stored leaf past auth's last is a record no longer held, and a leaf
        of auth past the stored last is a record the tree does not cover.
        """
        out = []
        top = len(stored.levels) - 1
        pending = [(top, 0, ((top, 0),))] if stored.leaf_count else []
        while pending:
            level, idx, path = pending.pop()
            if level == 0:
                out.append((idx, path))
                continue
            lo, hi = idx * stored.w, (idx + 1) * stored.w
            for child in range(lo, min(hi, len(stored.levels[level - 1]))):
                report.inspected += 1
                if stored.levels[level - 1][child] != _node(auth, level - 1, child):
                    pending.append((level - 1, child, path + ((level - 1, child),)))
        out += [(g, ((0, g),)) for g in range(stored.leaf_count, auth.leaf_count)]
        return out


def _node(tree: WaryTree, level: int, idx: int) -> int | None:
    """Value of node (level, idx), None where the tree has no such node."""
    if 0 <= level < len(tree.levels) and 0 <= idx < len(tree.levels[level]):
        return tree.levels[level][idx]
    return None
