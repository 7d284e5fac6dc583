"""Independent reference implementations the tests compare against.

Everything here is deliberately written with different algorithms than the
package uses: interpolation by Gaussian elimination instead of Lagrange
basis polynomials, tree sums by whole-level recomputation instead of delta
propagation, aggregation in exact rational arithmetic on the plaintext.
"""

from __future__ import annotations

import hmac
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from datetime import date, timedelta
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import itemgetter, mul
from pathlib import Path

from fvss.cost import _rat, reference_pricing
from fvss.errors import EmptyInput, NotIndexed, OutOfRange, SchemaMismatch
from fvss.sharing import DATA_KINDS, PLAIN_KINDS
from fvss.index import _PICKS

_EPOCH = date(1970, 1, 1)
_KEY = itemgetter(0)    # order key of a Type II (key, pk) entry


def interpolate_gauss(points, p):
    """Solve the Vandermonde system for the coefficients mod p.

    Returns the coefficient list (constant first, trailing zeros trimmed)
    of the unique degree < len(points) polynomial through the points.
    """
    k = len(points)
    rows = [[pow(x, j, p) for j in range(k)] + [y % p] for x, y in points]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] % p != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], p - 2, p)
        rows[col] = [v * inv % p for v in rows[col]]
        for r in range(k):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[col])]
    coeffs = [rows[j][k] for j in range(k)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def eval_poly(coeffs, x, p):
    return sum(c * pow(x, j, p) for j, c in enumerate(coeffs)) % p


def tree_levels(leaves, w, p):
    """All levels of the additive w-ary tree, recomputed from scratch."""
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append(
            [sum(prev[i : i + w]) % p for i in range(0, len(prev), w)]
        )
    return levels


def plain_sum(values):
    """Exact sum of non-null plaintext values."""
    return sum((Fraction(str(v)) for v in values if v is not None), Fraction(0))


def plain_avg(values):
    present = [v for v in values if v is not None]
    return plain_sum(present) / len(present)


def plain_var(values):
    present = [Fraction(str(v)) for v in values if v is not None]
    mean = sum(present, Fraction(0)) / len(present)
    return sum((v - mean) ** 2 for v in present) / len(present)


# Plaintext query evaluator. Takes the package's parsed AST (the parser has
# its own tests) but shares no execution code: it walks the original rows
# dict by dict, joins through plain lookups and aggregates with Fractions.


def _norm(v, kind):
    if v is None or kind != "real":
        return v
    return v if isinstance(v, Fraction) else Fraction(str(v))


def _plain_literal(raw, kind):
    if kind in ("key", "fk", "int"):
        # exactly, so that a literal finer than the column's whole numbers equals none
        value = Fraction(raw)
        return value.numerator if value.denominator == 1 else value
    if kind == "bool":
        return raw if isinstance(raw, bool) else bool(int(raw))
    if kind == "date":
        return date.fromisoformat(raw)
    if kind == "real":
        return Fraction(str(raw))
    return str(raw)


def _pred_holds(v, op, operand):
    if v is None:
        return False
    if op == "between":
        return operand[0] <= v <= operand[1]
    if op == "in":
        return v in operand
    return {
        "=": v == operand, "!=": v != operand,
        "<": v < operand, "<=": v <= operand,
        ">": v > operand, ">=": v >= operand,
    }[op]


def _row_sort_key(key):
    return tuple((v is None, isinstance(v, str), v) for v in key)


class PlainWarehouse:
    """Rows held in the clear; answers the same queries as the shared one."""

    def __init__(self):
        self.schemas = {}
        self.rows = {}
        self.derived = {}   # table -> list of (name, kind, x, y, scale)

    def add_table(self, schema, rows, derived=()):
        self.schemas[schema.table] = schema
        self.derived[schema.table] = list(derived)
        out = []
        for row in rows:
            row = dict(row)
            for name, dkind, x, y, scale in derived:
                row[name] = self._derive(row, dkind, x, y, scale)
            out.append(row)
        self.rows[schema.table] = out

    @staticmethod
    def _derive(row, dkind, x, y, scale):
        fx = _norm(row.get(x), "real")
        if fx is None:
            return None
        if dkind == "square":
            return fx * fx
        fy = _norm(row.get(y), "real")
        if fy is None:
            return None
        if dkind == "product":
            return fx * fy
        return Fraction(round(fx / fy * 10**scale), 10**scale)

    def _kind(self, table, name):
        col = self.schemas[table].column(name)
        return col.kind

    def _owner(self, ref, names):
        if ref.qualifier is not None:
            return names[ref.qualifier]
        for table in dict.fromkeys(names.values()):
            if any(c.name == ref.name for c in self.schemas[table].columns):
                return table
        raise KeyError(ref.name)

    def query(self, q):
        fact = q.table
        names = {q.alias or fact: fact, fact: fact}
        fk_of = {}
        for j in q.joins:
            names[j.alias or j.table] = j.table
            names[j.table] = j.table
            for ref in (j.left, j.right):
                if self._owner(ref, names) == fact:
                    fk_of[j.table] = ref.name
        by_key = {
            t: {row[self.schemas[t].key]: row for row in self.rows[t]}
            for t in self.rows
        }

        def fetch(row, ref):
            t = self._owner(ref, names)
            if t == fact:
                return _norm(row.get(ref.name), self._kind(t, ref.name))
            dim_pk = row.get(fk_of[t])
            if dim_pk is None:
                return None
            return _norm(by_key[t][dim_pk].get(ref.name), self._kind(t, ref.name))

        matching = []
        for row in self.rows[fact]:
            ok = True
            for pred in q.where:
                t = self._owner(pred.attr, names)
                kind = self._kind(t, pred.attr.name)
                if pred.op == "between":
                    operand = tuple(_plain_literal(v, kind) for v in pred.operand)
                elif pred.op == "in":
                    operand = tuple(_plain_literal(v, kind) for v in pred.operand)
                else:
                    operand = _plain_literal(pred.operand, kind)
                if not _pred_holds(fetch(row, pred.attr), pred.op, operand):
                    ok = False
                    break
            if ok:
                matching.append(row)
        key_name = self.schemas[fact].key
        matching.sort(key=lambda r: r[key_name])

        from fvss.query import Aggregate, Combo, Star

        has_agg = any(isinstance(it.expr, Aggregate) for it in q.select)
        if not has_agg:
            out = []
            for row in matching:
                vals = []
                for it in q.select:
                    if isinstance(it.expr, Star):
                        skip = {d[0] for d in self.derived[fact]}
                        vals.extend(
                            _norm(row.get(c.name), c.kind)
                            for c in self.schemas[fact].columns
                            if c.name not in skip
                        )
                    else:
                        vals.append(fetch(row, it.expr))
                out.append(tuple(vals))
            return out

        groups = {}
        for row in matching:
            key = tuple(fetch(row, ref) for ref in q.group_by)
            groups.setdefault(key, []).append(row)
        if not q.group_by:
            groups = {(): matching}

        def agg_value(agg, rows):
            arg = agg.arg
            if isinstance(arg, Star):
                return len(rows)
            if isinstance(arg, Combo) and arg.op in "+-":
                is_real = any(
                    self._kind(fact, a.name) == "real" for a in (arg.x, arg.y)
                )
                pairs = [
                    (fetch(r, arg.x), fetch(r, arg.y))
                    for r in rows
                ]
                pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
                vals = [a + b if arg.op == "+" else a - b for a, b in pairs]
            else:
                if isinstance(arg, Combo):
                    dkind = "product" if arg.op == "*" else "quotient"
                    name, _, _, _, scale = next(
                        d for d in self.derived[fact]
                        if d[1] == dkind and (
                            {d[2], d[3]} == {arg.x.name, arg.y.name}
                            if dkind == "product"
                            else (d[2], d[3]) == (arg.x.name, arg.y.name)
                        )
                    )
                    is_real = scale > 0
                    vals = [r.get(name) for r in rows]
                else:
                    is_real = self._kind(self._owner(arg, names), arg.name) == "real"
                    vals = [fetch(r, arg) for r in rows]
                if agg.fn == "median":
                    present = sorted(
                        (v, r[key_name])
                        for v, r in zip(vals, rows) if v is not None
                    )
                    if not present:
                        return None
                    return present[(len(present) - 1) // 2][0]
                vals = [v for v in vals if v is not None]
            if agg.fn == "count":
                return len(vals)
            if agg.fn in ("max", "min"):
                return (max if agg.fn == "max" else min)(vals) if vals else None
            total = sum(vals, Fraction(0) if is_real else 0)
            if agg.fn == "sum":
                return total
            if not vals:
                return None
            if agg.fn == "avg":
                return Fraction(total) / len(vals)
            var = plain_var(vals)
            if agg.fn == "var":
                return var
            with localcontext() as ctx:
                ctx.prec = 50
                root = (Decimal(var.numerator) / Decimal(var.denominator)).sqrt()
                return root.quantize(Decimal("0.000001"))

        out = []
        for key in sorted(groups, key=_row_sort_key):
            rows = groups[key]
            vals = []
            for it in q.select:
                if isinstance(it.expr, Aggregate):
                    vals.append(agg_value(it.expr, rows))
                else:
                    ref = it.expr
                    idx = next(
                        i for i, g in enumerate(q.group_by)
                        if self._owner(g, names) == self._owner(ref, names)
                        and g.name == ref.name
                    )
                    vals.append(key[idx])
            out.append(tuple(vals))
        return out


# Chunk-tuple form. The store once held every share as a tuple of
# chunks, a number's as a 1-tuple; it now holds a number's share as an
# int. The references below that were written for the tuple form take and
# give it; these convert a share, or the value columns of a batch, between
# the two forms.


def chunk_form(share, kind):
    """A share as the chunk tuple the store once held: a number's int as
    its 1-tuple, a string's tuple and None as they are."""
    return share if share is None or kind == "string" else (share,)


def share_form(chunks, kind):
    """Inverse of chunk_form; an empty tuple, the old encoding of None,
    is None."""
    if chunks is None or len(chunks) == 0:
        return None
    return chunks if kind == "string" else chunks[0]


def chunk_columns(schema, values):
    """The value columns of a batch (record_fields order) in chunk-tuple form."""
    return [vals if col.kind == "fk" else [chunk_form(v, col.kind) for v in vals]
            for col, vals in zip(schema.columns[1:], values)]


def share_columns_form(schema, values):
    """Inverse of chunk_columns."""
    return [vals if col.kind == "fk" else [share_form(v, col.kind) for v in vals]
            for col, vals in zip(schema.columns[1:], values)]


# Per-value column kernels. The store solves, signs and shares a share
# column in C-level passes over whole columns; these are the per-value
# loops they replaced, kept as written, in chunk-tuple form.


def solve_column(rows, pks, columns, sg, rg, km, table="", refusal="",
                 disagreement=None):
    """sharing.solve_column a value at a time: per pk, the chunks of its
    record polynomial at the rows' target, from the donors' columns of
    chunk tuples; None where every donor marks NULL. The donors must agree
    on each NULL mark and chunk count, and every chunk must pass the check
    row; the first pk that fails decides the error."""
    from fvss.errors import MissingShare
    from fvss.sharing import _mismatch

    disagreement = disagreement or MissingShare
    p = km.p
    weights, check = rows.weights, rows.check
    out = []
    for pk, held in zip(pks, zip(*columns)):
        if None in held:
            if any(c is not None for c in held):
                raise disagreement(f"pk {pk} of {table}: null marks disagree across CSPs")
            out.append(None)
            continue
        count = len(held[0])
        if any(len(c) != count for c in held):
            raise disagreement(f"pk {pk} of {table}: chunk counts disagree across CSPs")
        pk_term, check_pk = rows.pk_term * pk, rows.check_pk * pk
        chunks = []
        for ys in zip(*held):
            if (sum(map(mul, check, ys)) + check_pk) % p:
                raise _mismatch(sg, rg, ys, pk, km, f"pk {pk}{refusal}")
            chunks.append((sum(map(mul, weights, ys)) + pk_term) % p)
        out.append(tuple(chunks))
    return out


def record_bytes(schema, pks, values):
    """store._record_bytes a field at a time, in chunk-tuple form: pk,
    then every non-key field, 8-byte big-endian per integer, a single
    0xFF for null."""
    from fvss.store import _NULL_BYTES

    parts = [[pk.to_bytes(8, "big") for pk in pks]]
    for (_, is_fk), vals in zip(schema.record_fields(), values):
        if is_fk:
            parts.append([v.to_bytes(8, "big") for v in vals])
            continue
        parts.append([
            _NULL_BYTES if v is None
            else v[0].to_bytes(8, "big") if len(v) == 1
            else b"".join([c.to_bytes(8, "big") for c in v])
            for v in vals
        ])
    return list(map(b"".join, zip(*parts)))


def share_columns(schema, pks, bitmaps, values, km):
    """sharing.share_columns a record and a value at a time, in
    chunk-tuple form: per provider (ascending) that stores any of the
    records, the pks it stores in order and its value columns, a data
    value's chunks c as ((A_i*c + B_i*pk) % p, ...), None for NULL."""
    from fvss.sharing import group_from_bitmap, share_coefficients

    p = km.p
    coefficients = {}
    rows = {}   # i -> (k, A_i, B_i*pk) per record
    for k, (pk, bitmap) in enumerate(zip(pks, bitmaps)):
        coefs = coefficients.get(bitmap)
        if coefs is None:
            coefs = coefficients[bitmap] = share_coefficients(group_from_bitmap(bitmap), km)
        for i, a, b in coefs:
            rows.setdefault(i, []).append((k, a, b * pk % p))
    fks = [is_fk for _, is_fk in schema.record_fields()]
    out = {}
    for i in sorted(rows):
        mine = rows[i]
        out[i] = [pks[k] for k, _, _ in mine], [
            [column[k] for k, _, _ in mine] if is_fk else [
                None if (chunks := column[k]) is None
                else ((a * chunks[0] + bpk) % p,) if len(chunks) == 1
                else tuple([(a * c + bpk) % p for c in chunks])
                for k, a, bpk in mine
            ]
            for is_fk, column in zip(fks, values)
        ]
    return out


def type2_fast_path(text):
    """index._parse_type2's old test for its column-wise read: the entries
    of a file of integer keys that _type2_text writes again byte for
    byte, else None."""
    from fvss.index import _BRACKETS, _type2_text

    tokens = text.translate(_BRACKETS).split()
    try:
        entries = list(zip(map(int, tokens[0::2]), map(int, tokens[1::2])))
    except ValueError:
        return None
    return entries if _type2_text(entries) == text else None


# Per-record write references. The warehouse shares and stores a batch of
# records a column at a time; these replay the same writes one record at
# a time, through share_record and the one-record provider calls, as the
# write path once ran.


def with_derived(wh, table, row):
    """Warehouse._with_derived as load_rows once ran it on each row as it
    arrived: a copy of row with every derived column of table computed,
    in registration order, by DerivedColumn.compute through Fraction; a
    quotient by 0 is OutOfRange naming the table, column and pk."""
    full = dict(row)
    for d in wh.type3.for_table(table):
        try:
            full[d.name] = DerivedColumn(*d).compute(full)
        except ZeroDivisionError:
            pk = row.get(wh.schemas[table].key)
            raise OutOfRange(f"{table}.{d.name} of pk {pk}: {d.y} is 0") from None
    return full


def refuse_empty_strings(schema, row):
    """store._refuse_empty_strings of one row: OutOfRange for the first
    string column whose value is the empty string."""
    for col in schema.data_columns():
        if col.kind == "string" and row.get(col.name) == "":
            raise OutOfRange(f"{schema.table}.{col.name}: an empty string cannot be shared")


def encode_row(wh, schema, row):
    """Warehouse.load_rows's encoding of one row with a checked key, as it
    once ran record by record: with_derived, refuse_empty_strings, the
    unknown-column check, each fk's whole_number, then each field's
    chunks (encode_chunks, as an int for a number) and order key
    (order_key) in schema order, an int column's value refused unless
    it is a whole number. Returns (values, keys), one per record field."""
    from fvss.sharing import whole_number

    full = with_derived(wh, schema.table, row)
    refuse_empty_strings(schema, full)
    unknown = set(full) - {c.name for c in schema.columns}
    if unknown:
        raise SchemaMismatch(f"unknown columns {sorted(unknown)} for {schema.table}")
    fks = {c.name: whole_number(full.get(c.name), schema.table, c.name)
           for c in schema.columns if c.kind == "fk"}
    values, keys = [], []
    for col in schema.columns[1:]:
        value = full.get(col.name)
        if col.kind == "fk":
            values.append(fks[col.name])
            keys.append(fks[col.name])
            continue
        if col.kind == "int" and value is not None:
            number = Decimal(value) if isinstance(value, str) else value
            if int(number) != number:
                raise SchemaMismatch(
                    f"{schema.table}.{col.name} must be a whole number, got {value!r}")
        chunks = encode_chunks(value, col.kind, scale=col.scale, bias=wh.bias, p=wh.km.p)
        values.append(None if value is None else chunks if col.kind == "string" else chunks[0])
        keys.append(order_key(value, col))
    return values, keys


def per_record_load(wh, table, rows):
    """Warehouse.load_rows, one record at a time: each new row through
    share_record and put_shared_record per provider, then
    its Type I bitmap and Type II keys; a stored key through share_record
    in its storage group and update_shared_record. Returns the count."""
    from fvss.errors import CspUnavailable
    from fvss.sharing import group_from_bitmap, share_record
    from fvss.provider import StoredRecord

    schema = wh.schemas[table]
    alive = wh.alive_csps()
    count = 0
    for row in rows:
        full = with_derived(wh, table, row)
        refuse_empty_strings(schema, full)
        pk = int(full[schema.key])
        stored = wh.type1.has(table, pk)
        group = None
        if stored:
            group = group_from_bitmap(wh.type1.bitmap(table, pk))
            for i in sorted(group.sg):
                if not wh.csps[i].alive:
                    raise CspUnavailable(f"CSP {i} stores pk {pk} of {table} and is failed")
        bundle = share_record(full, schema, wh.weights, wh.alive_csps() if stored else alive,
                              wh.km, bias=wh.bias, group=group)
        for i in sorted(bundle.group.sg):
            rec = StoredRecord(pk, bundle.plain, {
                attr: None if per_csp is None else per_csp[i]
                for attr, per_csp in bundle.shares.items()
            })
            csp = wh.csps[i]
            if stored:
                csp.update_shared_record(schema, csp.position_of(table, pk), rec,
                                         record_sig(wh, i, schema, rec))
            else:
                csp.put_shared_record(schema, rec, record_sig(wh, i, schema, rec))
        if not stored:
            type1_set(wh.type1, table, pk, bundle.bitmap)
        for col in [c for c in schema.columns[1:] if wh.type2.is_indexed(table, c.name)]:
            key = order_key(full.get(col.name), col)
            if key is None:
                wh.type2.remove(table, col.name, pk)
            else:
                wh.type2.insert(table, col.name, key, pk)
        count += 1
    return count


def per_cell_rewrite(wh, schema, pks, deltas, replacements, refresh):
    """cube._rewritten_cells, one cell and one provider at a time: each
    cell's re-shared values shared one chunk at a time with
    share_cell_chunk, its record read with get_record, its summable
    measures moved by their deltas and the rest replaced by their
    re-shared chunks, and written back with update_shared_record."""
    from fvss.cube import share_cell_chunk
    from fvss.sharing import encode_chunks

    km, p = wh.km, wh.km.p
    for k, pk in enumerate(pks):
        reshared = {}
        for attr, values in replacements.items():
            col = schema.column(attr)
            chunks = encode_chunks(values[k], col.kind, scale=col.scale, bias=wh.bias, p=p)
            if chunks is None:
                reshared[attr] = None
            elif col.kind == "string":
                per_chunk = [share_cell_chunk(km, schema.table, pk, attr, j, c, refresh)
                             for j, c in enumerate(chunks)]
                reshared[attr] = {i: tuple(m[i] for m in per_chunk) for i in range(1, km.n + 1)}
            else:
                reshared[attr] = share_cell_chunk(km, schema.table, pk, attr, 0, chunks, refresh)
        for i in sorted(wh.csps):
            csp = wh.csps[i]
            pos = csp.position_of(schema.table, pk)
            rec = get_record(csp, schema.table, pos)
            for attr, columns in deltas.items():   # a summable measure's share is an int
                rec.shares[attr] = (rec.shares[attr] + columns[i - 1][k]) % p
            for attr, shares in reshared.items():
                rec.shares[attr] = None if shares is None else shares[i]
            csp.update_shared_record(schema, pos, rec, record_sig(wh, i, schema, rec))


# The one-item provider, index and tree calls the package had beside its
# batch paths (fetch_records, TypeOneIndex.set_many, WaryTree.extend and
# the level-wise tree codec), and the evaluation through given points
# beside lagrange_weights, kept as written.


def get_record(csp, table, pos):
    """CspStore.get_record: the record at pos as a StoredRecord, counting
    the 64 bytes a record that fetch_records counts."""
    csp.check_alive()
    pk = csp._pk_at(table, pos)
    csp.bytes_transferred += 64
    return csp._record(table, pk)


def record_sig(wh, i, schema, rec):
    """Provider i's leaf signature of the StoredRecord rec, as the client
    signs it: Warehouse.sign of a batch of one."""
    from fvss.provider import _unpack

    return wh.sign(i, schema, [rec.pk], _unpack(schema, rec))[0]


def type1_set(index, table, pk, bitmap):
    """TypeOneIndex.set: file one (pk, bitmap) pair."""
    entries = index.entries.setdefault(table, {})
    absent = index.absent.setdefault(table, {})
    if pk in entries:
        for pks in absent.values():
            pks.discard(pk)
    entries[pk] = bitmap
    for i, bit in enumerate(bitmap, 1):
        if bit == "0":
            absent.setdefault(i, set()).add(pk)


def triples(tree):
    """WaryTree.triples: every node as (level, index, value), level by level."""
    return [
        (level, idx, v)
        for level, nodes in enumerate(tree.levels)
        for idx, v in enumerate(nodes)
    ]


def interpolate_at(xs, ys, x, p):
    """field.interpolate_at: value at x of the polynomial of degree
    < len(xs) through (xs[i], ys[i]), through lagrange_weights."""
    from fvss.field import lagrange_weights

    if len(ys) != len(xs):
        raise ValueError(f"{len(xs)} abscissas but {len(ys)} ordinates")
    return sum(map(mul, lagrange_weights(xs, x, p), ys)) % p


# Per-line text codecs. The store writes and parses its files a column at
# a time; these are the codecs it used to run line by line, kept as
# written, with Warehouse.save's and Warehouse.load's per-line Type I and
# Type II loops and the per-line tree leaf codec.


def _shares_text(schema, pks, values):
    """The records as .shares lines: tab-separated decimal fields, share
    chunks comma-joined, the NULL literal for nulls."""
    from fvss.provider import NULL_LITERAL

    cols = [map(str, pks)]
    for (_, is_fk), vals in zip(schema.record_fields(), values):
        cols.append(map(str, vals) if is_fk else [
            NULL_LITERAL if v is None else ",".join(map(str, v)) for v in vals
        ])
    return "".join(line + "\n" for line in map("\t".join, zip(*cols)))


def _parse_shares(schema, text):
    """Inverse of _shares_text: (pks, values) of a .shares file."""
    from fvss.errors import SchemaMismatch
    from fvss.provider import NULL_LITERAL

    fields = schema.record_fields()
    rows = [line.split("\t") for line in text.splitlines() if line]
    if any(len(row) != len(fields) + 1 for row in rows):
        raise SchemaMismatch(f"{schema.table}.shares: a line without {len(fields) + 1} fields")
    cols = list(zip(*rows)) or [()] * (len(fields) + 1)
    values = [
        list(map(int, raw)) if is_fk
        else [None if r == NULL_LITERAL else tuple(map(int, r.split(","))) for r in raw]
        for (_, is_fk), raw in zip(fields, cols[1:])
    ]
    return list(map(int, cols[0])), values


def leaves_text(leaves):
    """provider._leaves_text, a line at a time: each leaf's (0, index,
    value) line."""
    return "".join(f"0\t{index}\t{value}\n" for index, value in enumerate(leaves))


def parse_leaves(name, lines):
    """provider._parse_leaves, a line at a time: the level-0 values in
    file order, each at the next index; lines of an upper level skipped,
    the first bad line refused."""
    leaves = []
    for line in lines:
        if not line:
            continue
        try:
            level, index, value = map(int, line.split("\t"))
        except ValueError as err:
            raise SchemaMismatch(f"{name}: {err}") from None
        if level < 0 or level == 0 and index != len(leaves):
            raise SchemaMismatch(f"{name}: non-contiguous triple ({level}, {index})")
        if level == 0:
            leaves.append(value)
    return leaves


def bitmap_lines_text(type1, table_order):
    """Warehouse.save's type1.bitmap text, a line at a time."""
    bitmap_lines = []
    for table in table_order:
        for pk in type1.pks(table):
            bitmap_lines.append(f"{table}\t{pk}\t{type1.bitmap(table, pk)}")
    return "".join(line + "\n" for line in bitmap_lines)


def load_bitmap_lines(type1, text):
    """Warehouse.load's Type I loop: type1_set of each line."""
    for line in text.splitlines():
        if not line:
            continue
        table, pk, bitmap = line.split("\t")
        type1_set(type1, table, int(pk), bitmap)


def type2_text(entries):
    """Warehouse.save's .idx text: one json.dumps([key, pk]) per entry."""
    import json

    lines = [json.dumps([key, pk]) for key, pk in entries]
    return "".join(line + "\n" for line in lines)


def parse_type2(text):
    """Warehouse.load's .idx parse: the sorted entries and the pk -> key map."""
    import json

    lines = [line for line in text.splitlines() if line]
    pairs = json.loads("[" + ",".join(lines) + "]")
    return sorted((key, pk) for key, pk in pairs), {pk: key for key, pk in pairs}


# Typed-value references. The package turns a typed value into its
# integer in one place (sharing.typed_key); these are the encoders and
# decoders it replaced, kept as written: the share chunks and their
# inverse, and the Type II order key and its inverse.


def scaled_int(value, scale: int) -> int:
    """round(value * 10^scale), ties to even, through Fraction.__round__:
    a float through its shortest decimal repr, anything else exactly."""
    if isinstance(value, float):
        value = Decimal(str(value))
    return round(Fraction(value) * 10**scale)


def encode_chunks(value, kind: str, *, scale: int = 0, bias: int = 0, p: int) -> tuple[int, ...]:
    """The field-element chunks of a typed plaintext value, () for None.

    Integers, reals (scaled by 10^scale), dates (epoch days) and booleans
    land in one chunk, offset by the bias so negatives stay in [0, p).
    Strings become one chunk per UTF-8 byte.
    """
    if value is None:
        return ()
    if kind == "int":
        chunk = int(value) + bias
    elif kind == "bool":
        chunk = int(bool(value)) + bias
    elif kind == "date":
        chunk = (value - _EPOCH).days + bias
    elif kind == "real":
        chunk = scaled_int(value, scale) + bias
    elif kind == "string":
        raw = value.encode("utf-8")
        for b in raw:
            if b >= p:
                raise OutOfRange(f"byte {b} of {value!r} >= p={p}")
        return tuple(raw)
    else:
        raise SchemaMismatch(f"cannot encode kind {kind!r}")
    if not 0 <= chunk < p:
        raise OutOfRange(f"{kind} value {value!r} encodes to {chunk}, outside [0, {p})")
    return (chunk,)


def decode(chunks, kind: str, *, scale: int = 0, bias: int = 0):
    """Inverse of encode for values stored exactly (no modular wrap)."""
    if not chunks:
        return None
    if kind == "string":
        return bytes(chunks).decode("utf-8")
    raw = chunks[0] - bias
    if kind == "int":
        return raw
    if kind == "bool":
        return bool(raw)
    if kind == "date":
        return date.fromordinal(_EPOCH.toordinal() + raw)
    if kind == "real":
        return Fraction(raw, 10**scale)
    raise SchemaMismatch(f"cannot decode kind {kind!r}")


def order_key(value, col):
    """Plaintext order key for a Type II entry.

    Numeric kinds map to signed integers (scaled for reals, epoch days for
    dates, 0/1 for booleans) so comparisons match plaintext semantics;
    strings stay strings; None means the value is absent from the index.
    """
    if value is None:
        return None
    kind = col.kind
    if kind in ("key", "fk", "int"):
        return int(value)
    if kind == "bool":
        return int(bool(value))
    if kind == "date":
        return (value - _EPOCH).days
    if kind == "real":
        v = value if isinstance(value, Fraction) else Fraction(str(value))
        return scaled_int(v, col.scale)
    if kind == "string":
        return str(value)
    raise SchemaMismatch(f"no order key for kind {kind!r}")


def display_value(key, col):
    """Inverse of order_key: canonical index key back to a plaintext value."""
    if key is None:
        return None
    kind = col.kind
    if kind == "real":
        return Fraction(key, 10**col.scale)
    if kind == "date":
        return _EPOCH + timedelta(days=key)
    if kind == "bool":
        return bool(key)
    return key


# Cube cell sharing by interpolation. The package shares a batch of cube
# field elements through cached coefficients and one seed MAC loop
# (cube.share_cell_chunks); this rebuilds each chunk's polynomial through
# its data point, its signature point and filler ordinates MACed one at a
# time with hmac.digest, and evaluates it at every provider.


def filler_ordinate(km, table, pk, attr, chunk, j, refresh=None):
    """Ordinate j at the filler abscissas of one cube cell chunk."""
    msg = f"cubefill|{table}|{pk}|{attr}|{chunk}|{j}"
    if refresh is not None:
        msg += f"|refresh {refresh}"
    return int.from_bytes(hmac.digest(km.seed, msg.encode(), "sha256")[:16], "big") % km.p


def cell_chunk_shares(km, table, pk, attr, chunk, value, refresh=None):
    """Every provider's share of one cube cell chunk: {i: share}."""
    p = km.p
    fillers = [(km.x_filler(j), filler_ordinate(km, table, pk, attr, chunk, j, refresh))
               for j in range(km.t - 2)]
    coeffs = interpolate_gauss([(km.x_kd, value), (km.x_ks, km.he1(value)), *fillers], p)
    return {i: eval_poly(coeffs, km.x_id(i), p) for i in range(1, km.n + 1)}


# Cube cell deltas as first written. cube._cell_changes now gives a SUM
# or COUNT cell's delta as its share-space part plus a sharing of a
# plaintext correction (share_cell_chunks); this is the rule it replaced,
# kept as written: a SUM's delta minus a separate bias correction, a
# COUNT's A_i times k, each plus the cell's zero-sharing. It returns its
# changes in the column form _cell_changes gives them.


def bias_correction(km, terms, bias):
    """Per-provider shares subtracted so the updated cell keeps exactly one
    bias offset: their polynomial carries terms*bias at the data point, the
    matching signature value, and zero at every filler."""
    from fvss.cube import cell_coefficients

    value = terms * bias
    return {i: a * value % km.p for i, a, _ in cell_coefficients(km)}


def cell_changes(wh, spec, stored, levels, refresh, rg):
    """cube._cell_changes under the old SUM and COUNT delta rule, one
    level at a time, each cell's zero-sharing shared on its own."""
    from fvss.cube import cell_coefficients, cube_table, share_cell_chunk
    from fvss.query import (
        BIAS_TERMS, aggregate_groups, present_pks, share_space_sums, summed_pks,
    )

    fact, table, km = spec.table, cube_table(spec), wh.km
    csps, p = sorted(wh.csps), km.p
    pks = [pk for cell_pks, _, _ in levels for pk in cell_pks]
    deltas, replacements = {}, {}
    if not pks:
        return pks, deltas, replacements
    for sm in stored:
        agg, name = sm.agg, sm.column.name
        if agg.fn in ("min", "max"):
            replacements[name] = [value for _, _, members_all in levels
                                  for value in aggregate_groups(wh, fact, agg, members_all, rg)]
            continue
        per_cell = []
        for cell_pks, members_new, _ in levels:
            if agg.fn == "sum":
                x = agg.attr or agg.x
                present = summed_pks(wh, fact, x, agg.y, members_new, csps)
                live = [k for k, g in enumerate(present) if g]
                sums = dict(zip(live, share_space_sums(wh, fact, [present[k] for k in live],
                                                       csps, x, agg.y, agg.op) if live else ()))
                level = []
                for k, g in enumerate(present):
                    h = bias_correction(km, BIAS_TERMS[agg.op] * len(g), wh.bias)
                    level.append([a - h[i] for i, a in zip(csps, sums.get(k, [0] * len(csps)))])
            else:
                counted = members_new if agg.mode == "star" else \
                    present_pks(wh, fact, agg.attr, members_new, csps)
                level = [[a * len(g) for _, a, _ in cell_coefficients(km)] for g in counted]
            for pk, delta in zip(cell_pks, level):
                mask = share_cell_chunk(km, table, pk, name, 0, 0, refresh)
                per_cell.append([(d + mask[i]) % p for i, d in zip(csps, delta)])
        deltas[name] = [list(column) for column in zip(*per_cell)]
    return pks, deltas, replacements


# Placement reference. The package places a batch of records at once
# through a map from each record's 64-bit draw to its storage group
# (sharing.systematic_groups, sharing.storage_bitmaps); this places one
# record at a time, with exact Fractions, one hmac.digest per message and
# a linear walk of the cumulative inclusion probabilities.


def _exact_weight(w):
    return Fraction(w) if isinstance(w, (int, Fraction)) else Fraction(str(w))


def inclusion_probabilities(weights, alive, k):
    """pi_i = min(1, c * w_i) summing to k over the alive providers: c is
    found by capping the m largest weights, for the smallest m that leaves
    no uncapped c * w_i above 1; with at most k positive weights, those
    and the first zero-weight providers by index get 1."""
    alive = sorted(set(alive))
    exact = {i: _exact_weight(weights[i - 1]) for i in alive}
    weighted = [i for i in alive if exact[i] > 0]
    if len(weighted) <= k:
        chosen = weighted + [i for i in alive if i not in weighted][:k - len(weighted)]
        return {i: Fraction(int(i in chosen)) for i in alive}
    ranked = sorted(weighted, key=lambda i: exact[i], reverse=True)
    for m in range(k):
        c = Fraction(k - m) / sum(exact[i] for i in ranked[m:])
        if c * exact[ranked[m]] <= 1:
            return {i: min(Fraction(1), c * exact[i]) for i in alive}
    raise AssertionError("no c found")


def _placement_order(weights, alive, km):
    """(k, pi, the providers of positive pi in their keyed order)."""
    from fvss.errors import NotEnoughAliveCsps

    k = km.n - km.t + 2
    if len(set(alive)) < k:
        raise NotEnoughAliveCsps(f"need {k} alive CSPs, have {len(set(alive))}")
    pi = inclusion_probabilities(weights, alive, k)
    placed = [i for i in sorted(pi) if pi[i] > 0]
    order = sorted(placed, key=lambda i: hmac.digest(km.seed, f"sysorder|{i}".encode(), "sha256"))
    return k, pi, order


def systematic_group_at(v, weights, alive, km):
    """The storage group of the 64-bit draw v: the providers whose
    intervals, laid end to end in the keyed order, hold u, u + 1, ...,
    u + k - 1 for u = v / 2^64."""
    from fvss.sharing import StorageGroup

    k, pi, order = _placement_order(weights, alive, km)
    point, end, chosen = Fraction(v, 1 << 64), Fraction(0), []
    for i in order:
        start, end = end, end + pi[i]
        if start <= point < end:
            chosen.append(i)
            point += 1
    assert len(chosen) == k
    sg = frozenset(chosen)
    return StorageGroup(sg, frozenset(range(1, km.n + 1)) - sg, km.n)


def systematic_breakpoints(weights, alive, km):
    """The draws v at which the group may change: 0 and ceil(b * 2^64) of
    the fractional part b of each interval's end."""
    _, pi, order = _placement_order(weights, alive, km)
    out, end = {0}, Fraction(0)
    for i in order:
        end += pi[i]
        out.add(math.ceil((end - math.floor(end)) * (1 << 64)))
    return sorted(out)


def systematic_storage_group(pk, weights, alive, km):
    """The storage group of the record keyed pk: the group of the first 8
    bytes, big-endian, of the seed MAC of sysplace|pk."""
    v = int.from_bytes(hmac.digest(km.seed, f"sysplace|{pk}".encode(), "sha256")[:8], "big")
    return systematic_group_at(v, weights, alive, km)


# Record references. The package's value records are named tuples; these
# are the frozen dataclasses they replaced, kept as written (KeyMaterial,
# AppConfig and PlannedAgg with their fields only, their methods being
# the package's), so that a battery can hold equality, hash, repr, field
# reads and construction errors to them.


@dataclass(frozen=True)
class Column:
    name: str
    kind: str                 # key | fk | int | real | string | date | bool
    scale: int = 0            # decimal digits kept for reals
    fk_table: str | None = None


@dataclass(frozen=True)
class Schema:
    table: str
    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaMismatch(f"duplicate column in {self.table}: {names}")
        if not self.columns or self.columns[0].kind != "key":
            raise SchemaMismatch(f"first column of {self.table} must be the key")
        # column lookups, computed once per schema rather than per record
        derived = {
            "_by_name": {c.name: c for c in self.columns},
            "_data": tuple(c for c in self.columns if c.kind in DATA_KINDS),
            "_plain": tuple(c for c in self.columns if c.kind in PLAIN_KINDS),
            "_fields": tuple((c.name, c.kind == "fk") for c in self.columns[1:]),
        }
        for attr, value in derived.items():
            object.__setattr__(self, attr, value)

    @property
    def key(self) -> str:
        return self.columns[0].name

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaMismatch(f"no column {name} in {self.table}") from None

    def data_columns(self) -> tuple[Column, ...]:
        return self._data

    def plain_columns(self) -> tuple[Column, ...]:
        return self._plain

    def record_fields(self) -> tuple[tuple[str, bool], ...]:
        return self._fields


@dataclass(frozen=True)
class PricingPolicy:
    """Per-provider monthly storage and hourly VM prices, all in dollars."""
    storage: tuple[Fraction, ...]
    svm: tuple[Fraction, ...]
    mvm: tuple[Fraction, ...]
    lvm: tuple[Fraction, ...]

    def __post_init__(self):
        for name in ("storage", "svm", "mvm", "lvm"):
            object.__setattr__(self, name,
                               tuple(_rat(x) for x in getattr(self, name)))
        rows = (self.storage, self.svm, self.mvm, self.lvm)
        if len({len(row) for row in rows}) != 1:
            raise OutOfRange("price rows cover different provider counts")
        if any(x < 0 for row in rows for x in row):
            raise OutOfRange("negative price")

    @property
    def n(self) -> int:
        return len(self.storage)

    def vm_price(self, tier: str, i: int) -> Fraction:
        row = {"sVM": self.svm, "mVM": self.mvm, "lVM": self.lvm}[tier]
        return row[i - 1]


@dataclass(frozen=True)
class KeyMaterial:
    seed: bytes
    p: int
    n: int
    t: int
    k_d: int
    k_s: int
    ids: tuple[int, ...]               # ID_i, index i-1
    filler_ids: tuple[int, ...]        # t-2 reserved abscissa owners for cube rows
    he1_scalar: int
    he2_multipliers: dict[int, int]    # ID value -> multiplier
    he_star_scalars: dict[int, int]    # CSP index -> scalar
    hf_star_keys: dict[int, bytes] = field(repr=False, default_factory=dict)
    points: dict[int, int] = field(default_factory=dict)  # registered value -> HF1 image


@dataclass(frozen=True)
class AppConfig:
    n: int
    t: int
    p: int
    seed: bytes
    root: Path
    w: int = 3
    weights: tuple[float, ...] | None = None
    bias: int | None = None
    pricing: PricingPolicy = field(default_factory=reference_pricing)
    # (schema, index_attrs, derived) triples in declaration order
    tables: tuple[tuple[Schema, tuple[str, ...], tuple[DerivedColumn, ...]], ...] = ()
    cubes: dict[str, CubeSpec] = field(default_factory=dict)


@dataclass(frozen=True)
class DerivedColumn:
    """Type III registration: an extra shared column derived at load time."""
    table: str
    name: str
    kind: str          # square | product | quotient
    x: str
    y: str | None = None
    scale: int = 0     # decimal scale of the derived value

    def compute(self, row: dict) -> Fraction | None:
        xv = row.get(self.x)
        if xv is None:
            return None
        x = xv if isinstance(xv, Fraction) else Fraction(str(xv))
        if self.kind == "square":
            return x * x
        yv = row.get(self.y)
        if yv is None:
            return None
        y = yv if isinstance(yv, Fraction) else Fraction(str(yv))
        if self.kind == "product":
            return x * y
        if self.kind == "quotient":
            # quotients rarely terminate; round to the registered scale
            scaled = round(x / y * 10**self.scale)
            return Fraction(scaled, 10**self.scale)
        raise SchemaMismatch(f"unknown derived kind {self.kind!r}")


@dataclass(frozen=True)
class PlannedAgg:
    fn: str
    mode: str             # star | plain | combined
    attr: str | None = None
    x: str | None = None
    y: str | None = None
    op: str | None = None
    square: str | None = None       # derived x^2 column backing var/stddev


# index.TypeTwoIndex as it was before it kept one pk -> key map per index:
# a sorted (key, pk) list maintained beside the map by bisect deletes,
# insort and extend + sort, the reference of tests/test_type_two.py
class TypeTwoIndex:
    """Plaintext ordered indices at the index server.

    Per indexed attribute, a sorted (key, pk) list answers predicates by
    bisection and a pk -> key dict beside it answers point reads and
    filtered aggregates; insert and remove keep both in step, one key per
    pk. Order keys are canonical integers (scaled reals, epoch days, 0/1
    booleans) or raw strings; nulls are simply absent.
    """

    def __init__(self):
        self.maps: dict[tuple[str, str], list[tuple]] = {}
        self.keys: dict[tuple[str, str], dict[int, object]] = {}

    def register(self, table: str, attr: str):
        self.maps.setdefault((table, attr), [])
        self.keys.setdefault((table, attr), {})

    def is_indexed(self, table: str, attr: str) -> bool:
        return (table, attr) in self.maps

    def _index(self, table: str, attr: str) -> tuple[list[tuple], dict[int, object]]:
        try:
            return self.maps[(table, attr)], self.keys[(table, attr)]
        except KeyError:
            raise NotIndexed(f"{table}.{attr} has no Type II index") from None

    def value_map(self, table: str, attr: str) -> dict[int, object]:
        """pk -> order key of every indexed record. This is the maintained
        map itself: callers must not modify it."""
        return self._index(table, attr)[1]

    def insert(self, table: str, attr: str, key, pk: int):
        """Index pk under key, replacing the key it had."""
        self.insert_many(table, attr, [(key, pk)])

    def remove(self, table: str, attr: str, pk: int):
        """Drop pk from the index; a pk that is not there is ignored."""
        self.insert_many(table, attr, [(None, pk)])

    def insert_many(self, table: str, attr: str, pairs):
        """Index each (key, pk) of pairs, whose pks are distinct, under its
        key, or drop it for a None key, as one batch: a pair whose key did
        not change is skipped, the old entries of the rest are taken out,
        and the new ones go in by one insort when there is one, else
        extended and sorted in once."""
        entries, keys = self._index(table, attr)
        new = []
        for key, pk in pairs:
            old = keys.get(pk)
            if old == key:
                continue
            if old is not None:
                del entries[bisect_left(entries, (old, pk))]
                del keys[pk]
            if key is not None:
                keys[pk] = key
                new.append((key, pk))
        if len(new) == 1:
            insort(entries, new[0])
        elif new:
            entries.extend(new)
            entries.sort()

    def lookup(self, table: str, attr: str, op: str, operand) -> set[int]:
        """Primary keys whose order key k satisfies `k op operand`; every
        operator reads only the bisected runs of matching entries."""
        entries = self._index(table, attr)[0]

        def run(lo_key, hi_key):
            return (bisect_left(entries, lo_key, key=_KEY),
                    bisect_right(entries, hi_key, key=_KEY))

        if op == "in":
            runs = [run(v, v) for v in set(operand)]
        elif op == "between":
            runs = [run(*operand)]
        else:
            a, b = run(operand, operand)   # first key >= operand, first key > operand
            runs = {"=": [(a, b)], "!=": [(0, a), (b, None)], "<>": [(0, a), (b, None)],
                    "<": [(0, a)], "<=": [(0, b)], ">": [(b, None)], ">=": [(a, None)]}.get(op)
            if runs is None:
                raise NotIndexed(f"unsupported predicate {op!r}")
        return {pk for start, stop in runs for _, pk in entries[start:stop]}

    def aggregates(self, table: str, attr: str, fn: str, groups) -> list:
        """Per group of pks, from one read of the pk -> key map: COUNT the
        cardinality (non-null by construction), MAX/MIN/MEDIAN the pk of
        the extremal or median record, None for a group with no indexed
        record. Only the groups' records are visited."""
        keys = self._index(table, attr)[1]
        held = keys.keys()
        if fn == "count":
            return [len(held & pks) for pks in groups]
        pick = _PICKS.get(fn)
        if pick is None:
            raise EmptyInput(f"unknown index aggregate {fn!r}")
        out = []
        for pks in groups:
            hits = held & pks
            out.append(pick([(keys[pk], pk) for pk in hits])[1] if hits else None)
        return out

    def aggregate(self, table: str, attr: str, fn: str, pks) -> int:
        """aggregates of one group; EmptyInput for MAX/MIN/MEDIAN when it
        has no indexed record."""
        got = self.aggregates(table, attr, fn, [pks])[0]
        if got is None:
            raise EmptyInput(f"{fn} over empty {table}.{attr} filter")
        return got
