"""Query language over shared tables: parse, plan, execute.

A query never reconstructs whole tables. The planner rewrites it into
index-server work (Type II lookups resolve predicates to primary-key
sets, Type I bitmaps supply pseudo-share sums) plus per-provider share
sums, and the client recombines: interpolate the summed shares, check
the aggregate's inner signature, strip bias and scale. Grouping runs on
the raw index keys of whole pk lists, either directly (primary and
foreign keys) or through the index server's maps for other attributes;
each distinct key is turned into its plaintext once. Each aggregate is
then evaluated over all groups at once (aggregate_groups, which cube
shares): each provider of the reconstruction group gets one NULL-mark
and one share-sum request per column whatever the number of groups,
each group's SUM still passes its own inner-signature check, and the
MAX/MIN/MEDIAN records of all groups are reconstructed in one batch.
Routes and group order are cube's too. Which providers a read uses is
the warehouse's decision (Warehouse.read_through): a query pinned to a
reconstruction group fails on its first signature mismatch, otherwise it
rotates to the next group.

Grammar, roughly::

    SELECT item (, item)*
    FROM table (AS? alias)?
    (JOIN table (AS? alias)? ON attr = attr)*
    (WHERE pred (AND pred)*)?
    (GROUP BY attr (, attr)*)?

    item := attr | * | FN ( * | attr ((+|-|*|/) attr)? ) (AS name)?
    pred := attr (=|!=|<>|<|<=|>|>=) literal
          | attr BETWEEN literal AND literal
          | attr IN ( literal (, literal)* )
    literal := -? number | 'text' | TRUE | FALSE

OR, NOT, HAVING, subqueries and implicit joins are out of scope and
rejected as unsupported rather than misparsed.
"""

from __future__ import annotations

import re
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain, filterfalse
from math import ceil, floor
from operator import add, sub
from typing import NamedTuple

from .errors import (
    EmptyInput,
    InnerSignatureMismatch,
    MissingTypeThreeColumn,
    NotIndexed,
    QuerySyntaxError,
    SchemaMismatch,
    UnknownTable,
    UnsupportedFeature,
)
from .index import _COMPARISONS
from .sharing import NUMBER_KINDS, Column, solve_sums, text_value, typed_key, typed_value
from .store import Warehouse

AGG_FNS = ("sum", "avg", "var", "variance", "stddev", "count", "min", "max", "median")

KEYWORDS = {
    "select", "from", "join", "on", "where", "and", "group", "by", "as",
    "between", "in", "true", "false",
    "or", "not", "having", "exists", "is", "null", "union", "cube",
} | set(AGG_FNS)

UNSUPPORTED_KEYWORDS = {"or", "not", "having", "exists", "is", "union", "cube"}


# abstract syntax


class Star(NamedTuple):
    def display(self) -> str:
        return "*"

    def __bool__(self) -> bool:   # a record with no fields is still a value
        return True


class AttrRef(NamedTuple):
    qualifier: str | None
    name: str

    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


class Combo(NamedTuple):
    op: str  # + - * /
    x: AttrRef
    y: AttrRef

    def display(self) -> str:
        return f"{self.x.display()}{self.op}{self.y.display()}"


class Aggregate(NamedTuple):
    fn: str
    arg: AttrRef | Combo | Star

    def display(self) -> str:
        return f"{self.fn.upper()}({self.arg.display()})"


class SelectItem(NamedTuple):
    expr: AttrRef | Aggregate | Star
    alias: str | None = None

    def display(self) -> str:
        return self.alias or self.expr.display()


class Join(NamedTuple):
    table: str
    alias: str | None
    left: AttrRef
    right: AttrRef


class Predicate(NamedTuple):
    attr: AttrRef
    op: str       # = != < <= > >= between in
    operand: object


class Query(NamedTuple):
    select: tuple[SelectItem, ...]
    table: str
    alias: str | None
    joins: tuple[Join, ...]
    where: tuple[Predicate, ...]
    group_by: tuple[AttrRef, ...]


# tokenizer

_TOKEN_RE = re.compile(
    r"""
      (?P<number>\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<string>'(?:[^']|'')*')
    | (?P<symbol><=|>=|!=|<>|[(),.=<>*+\-/])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # number ident string symbol kw end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise QuerySyntaxError(f"cannot read character {text[i]!r} at position {i}")
        kind = m.lastgroup
        tok = m.group()
        if kind == "ident" and tok.lower() in KEYWORDS:
            out.append(_Token("kw", tok.lower(), i))
        elif kind == "string":
            out.append(_Token("string", tok[1:-1].replace("''", "'"), i))
        else:
            out.append(_Token(kind, tok, i))
        i = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def _fail(self, want: str):
        tok = self.cur
        shown = tok.text or "end of query"
        raise QuerySyntaxError(f"expected {want} at position {tok.pos}, found {shown!r}")

    def _accept(self, kind: str, text: str | None = None) -> _Token | None:
        tok = self.cur
        if tok.kind == kind and (text is None or tok.text == text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self._accept(kind, text)
        if tok is None:
            self._fail(text or kind)
        return tok

    def _name(self) -> str:
        tok = self.cur
        if tok.kind == "kw" and tok.text in UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeature(f"{tok.text.upper()} is not supported")
        if tok.kind != "ident":
            self._fail("a name")
        return self._advance().text

    # grammar

    def parse(self) -> Query:
        self._expect("kw", "select")
        select = [self._select_item()]
        while self._accept("symbol", ","):
            select.append(self._select_item())
        self._expect("kw", "from")
        table = self._name()
        alias = self._alias()
        if self.cur.kind == "symbol" and self.cur.text == ",":
            raise UnsupportedFeature("implicit joins (comma in FROM) are not supported")
        joins = []
        while self._accept("kw", "join"):
            joins.append(self._join())
        where = []
        if self._accept("kw", "where"):
            where.append(self._predicate())
            while True:
                if self.cur.kind == "kw" and self.cur.text in UNSUPPORTED_KEYWORDS:
                    raise UnsupportedFeature(f"{self.cur.text.upper()} is not supported")
                if not self._accept("kw", "and"):
                    break
                where.append(self._predicate())
        group_by = []
        if self._accept("kw", "group"):
            self._expect("kw", "by")
            group_by.append(self._attr())
            while self._accept("symbol", ","):
                group_by.append(self._attr())
        if self.cur.kind != "end":
            if self.cur.kind == "kw" and self.cur.text in UNSUPPORTED_KEYWORDS:
                raise UnsupportedFeature(f"{self.cur.text.upper()} is not supported")
            self._fail("end of query")
        return Query(tuple(select), table, alias, tuple(joins),
                     tuple(where), tuple(group_by))

    def _alias(self) -> str | None:
        if self._accept("kw", "as"):
            return self._name()
        if self.cur.kind == "ident":
            return self._advance().text
        return None

    def _select_item(self) -> SelectItem:
        tok = self.cur
        if tok.kind == "symbol" and tok.text == "*":
            self._advance()
            return SelectItem(Star())
        if tok.kind == "kw" and tok.text in AGG_FNS:
            fn = self._advance().text
            fn = {"variance": "var"}.get(fn, fn)
            self._expect("symbol", "(")
            if self._accept("symbol", "*"):
                arg: AttrRef | Combo | Star = Star()
            else:
                arg = self._agg_arg()
            self._expect("symbol", ")")
            expr: AttrRef | Aggregate = Aggregate(fn, arg)
        else:
            expr = self._attr()
        alias = None
        if self._accept("kw", "as"):
            alias = self._name()
        return SelectItem(expr, alias)

    def _agg_arg(self) -> AttrRef | Combo:
        x = self._attr()
        tok = self.cur
        if tok.kind == "symbol" and tok.text in "+-*/":
            op = self._advance().text
            y = self._attr()
            return Combo(op, x, y)
        return x

    def _attr(self) -> AttrRef:
        first = self._name()
        if self._accept("symbol", "."):
            return AttrRef(first, self._name())
        return AttrRef(None, first)

    def _join(self) -> Join:
        table = self._name()
        alias = self._alias()
        self._expect("kw", "on")
        left = self._attr()
        self._expect("symbol", "=")
        right = self._attr()
        return Join(table, alias, left, right)

    def _predicate(self) -> Predicate:
        attr = self._attr()
        if self._accept("kw", "between"):
            lo = self._literal()
            self._expect("kw", "and")
            hi = self._literal()
            return Predicate(attr, "between", (lo, hi))
        if self._accept("kw", "in"):
            self._expect("symbol", "(")
            items = [self._literal()]
            while self._accept("symbol", ","):
                items.append(self._literal())
            self._expect("symbol", ")")
            return Predicate(attr, "in", tuple(items))
        tok = self.cur
        if tok.kind == "kw" and tok.text in UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeature(f"{tok.text.upper()} is not supported")
        if tok.kind != "symbol" or tok.text not in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self._fail("a comparison operator")
        op = self._advance().text
        if op == "<>":
            op = "!="
        return Predicate(attr, op, self._literal())

    def _literal(self):
        sign = ""
        if (self.cur.kind, self.cur.text) == ("symbol", "-") \
                and self.tokens[self.i + 1].kind == "number":
            sign = self._advance().text   # a negative number
        tok = self.cur
        if tok.kind == "number":
            self._advance()
            return sign + tok.text  # column kind decides int vs scaled real later
        if tok.kind == "string":
            self._advance()
            return tok.text
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self._advance()
            return tok.text == "true"
        if tok.kind == "symbol" and tok.text == "(":
            raise UnsupportedFeature("subqueries are not supported")
        self._fail("a literal")


def parse(text: str) -> Query:
    """Parse query text; bad syntax reports the offending position."""
    return _Parser(text).parse()


# planning: resolve names against the warehouse, route every piece of the
# query either to the index server or to the per-provider share sums; every
# WHERE and GROUP BY attribute takes its route from group_source


class Resolved(NamedTuple):
    table: str
    name: str
    col: Column


class GroupSource(NamedTuple):
    route: str            # pk | fk | fact_attr | dim_pk | dim_attr
    table: str
    attr: str
    col: Column
    fk: str | None = None  # fact column joining to the dim table


class FilterStep(NamedTuple):
    source: GroupSource   # the route to the filtered attribute
    op: str
    operand: object


class PlannedAgg(NamedTuple):
    fn: str
    mode: str             # star | plain | combined
    attr: str | None = None
    x: str | None = None
    y: str | None = None
    op: str | None = None
    square: str | None = None       # derived x^2 column backing var/stddev


class PlannedItem(NamedTuple):
    header: str
    kind: str             # group | agg | attr
    group_index: int | None = None
    agg: PlannedAgg | None = None
    attr: Resolved | None = None
    fk: str | None = None  # row mode: fact column joining to attr's dim table


class QueryPlan(NamedTuple):
    query: Query
    fact: str
    filter_steps: tuple[FilterStep, ...]
    group_sources: tuple[GroupSource, ...]
    items: tuple[PlannedItem, ...]
    row_mode: bool        # no aggregates: emit one row per matching record


def plan(query: Query, wh: Warehouse) -> QueryPlan:
    """Validate the query against the warehouse and fix the execution route
    for every predicate, group key and projection."""
    if query.table not in wh.schemas:
        raise UnknownTable(query.table)
    fact = query.table
    names = {query.alias or fact: fact, fact: fact}
    join_fk: dict[str, str] = {}  # dim table -> fact fk column

    for join in query.joins:
        if join.table not in wh.schemas:
            raise UnknownTable(join.table)
        names[join.alias or join.table] = join.table
        names[join.table] = join.table
        sides = {}
        for ref in (join.left, join.right):
            r = _resolve(ref, names, wh, fact)
            sides[r.table] = r
        if set(sides) != {fact, join.table}:
            raise UnsupportedFeature(
                f"join must link {fact} to {join.table} on a key"
            )
        fk_side, dim_side = sides[fact], sides[join.table]
        dim_schema = wh.schemas[join.table]
        if fk_side.col.kind != "fk" or dim_side.name != dim_schema.key:
            raise UnsupportedFeature(
                "joins must match a foreign key to the joined table's key"
            )
        if fk_side.col.fk_table not in (None, join.table):
            raise SchemaMismatch(
                f"{fk_side.name} references {fk_side.col.fk_table}, not {join.table}"
            )
        join_fk[join.table] = fk_side.name

    def _fk(table: str) -> str | None:   # None for the fact itself
        if table != fact and table not in join_fk:
            raise UnsupportedFeature(f"{table} is referenced but not joined")
        return join_fk.get(table)

    def _source(r: Resolved) -> GroupSource:
        return group_source(wh, r.table, r.name, _fk(r.table))

    filter_steps = []
    for pred in query.where:
        r = _resolve(pred.attr, names, wh, fact)
        operand = literal_operand(pred.operand, r.col, pred.op)
        filter_steps.append(FilterStep(_source(r), pred.op, operand))
    group_sources = [_source(_resolve(ref, names, wh, fact)) for ref in query.group_by]

    has_agg = any(isinstance(item.expr, Aggregate) for item in query.select)

    items = []
    for item in query.select:
        expr = item.expr
        if isinstance(expr, Star):
            if has_agg:
                raise UnsupportedFeature("bare * cannot mix with aggregates")
            derived = {d.name for d in wh.type3.for_table(fact)}
            for col in wh.schemas[fact].columns:
                if col.name not in derived:
                    items.append(PlannedItem(col.name, "attr",
                                             attr=Resolved(fact, col.name, col)))
            continue
        if isinstance(expr, Aggregate):
            items.append(PlannedItem(item.display(), "agg",
                                     agg=_plan_aggregate(expr, names, wh, fact)))
            continue
        r = _resolve(expr, names, wh, fact)
        header = item.alias or expr.name
        if has_agg:
            idx = _group_index(r, group_sources)
            if idx is None:
                raise UnsupportedFeature(
                    f"{expr.display()} is projected but not grouped"
                )
            items.append(PlannedItem(header, "group", group_index=idx))
        else:
            items.append(PlannedItem(header, "attr", attr=r, fk=_fk(r.table)))
    return QueryPlan(query, fact, tuple(filter_steps), tuple(group_sources),
                     tuple(items), not has_agg)


def _resolve(ref: AttrRef, names, wh, fact: str) -> Resolved:
    if ref.qualifier is not None:
        if ref.qualifier not in names:
            raise UnknownTable(f"{ref.qualifier} is not a table or alias in this query")
        candidates = [names[ref.qualifier]]
    else:
        candidates = []
        seen = set()
        for table in names.values():
            if table in seen:
                continue
            seen.add(table)
            if any(c.name == ref.name for c in wh.schemas[table].columns):
                candidates.append(table)
        if not candidates:
            raise SchemaMismatch(f"no table in this query has a column {ref.name}")
        if len(candidates) > 1:
            raise SchemaMismatch(f"{ref.name} is ambiguous, qualify it")
    table = candidates[0]
    schema = wh.schemas[table]
    for col in schema.columns:
        if col.name == ref.name:
            return Resolved(table, col.name, col)
    raise SchemaMismatch(f"{table} has no column {ref.name}")


def group_source(wh: Warehouse, table: str, attr: str, fk: str | None = None) -> GroupSource:
    """The route from fact records to table.attr of WHERE steps, group
    keys and cube cells (fk: the fact column referencing table, None for
    the fact itself): keys and the fact's fk columns read directly, others
    through their Type II index (NotIndexed without one)."""
    schema = wh.schemas[table]
    col = schema.column(attr)
    if attr == schema.key:
        route = "pk" if fk is None else "dim_pk"
    elif fk is None and col.kind == "fk":
        route = "fk"
    else:
        _require_index(wh, table, attr)
        route = "fact_attr" if fk is None else "dim_attr"
    return GroupSource(route, table, attr, col, fk=fk)


def _require_index(wh: Warehouse, table: str, attr: str):
    if not wh.type2.is_indexed(table, attr):
        raise NotIndexed(f"{table}.{attr} needs a Type II index for this query")


def _group_index(r: Resolved, group_sources) -> int | None:
    for i, g in enumerate(group_sources):
        if (g.table, g.attr) == (r.table, r.name):
            return i
    return None


def literal_operand(operand, col: Column, op: str):
    """A predicate's operand as order keys of col (literal_key): a pair
    for BETWEEN, a tuple for IN, else one key."""
    if op in ("between", "in"):
        return tuple(literal_key(v, col) for v in operand)
    return literal_key(operand, col)


def literal_key(raw, col: Column):
    """The order key a literal compares as against col: raw, query text
    (read by text_value) or a typed value, as a value of col's kind. A
    number keeps its exact value (times 10^scale on a real column, as
    typed_key scales only reals), an int when it is whole and a Fraction
    otherwise, so a literal finer than the column's keys lies between
    them and equals none; anything else takes its typed_key."""
    kind = col.kind
    try:
        if isinstance(raw, str):
            raw = text_value(raw, kind)
        if kind in ("key", "fk", "int", "real"):
            key = Fraction(raw) if isinstance(raw, (int, Fraction)) else Fraction(str(raw))
            if kind == "real":
                key *= 10**col.scale
            return key.numerator if key.denominator == 1 else key
        return typed_key(raw, kind, col.scale)
    except (ValueError, TypeError, SchemaMismatch) as exc:
        raise SchemaMismatch(f"literal {raw!r} does not fit a {kind} column") from exc


def _plan_aggregate(agg: Aggregate, names, wh, fact: str) -> PlannedAgg:
    fn = agg.fn
    if isinstance(agg.arg, Star):
        if fn != "count":
            raise UnsupportedFeature(f"{fn.upper()}(*) is not defined")
        return PlannedAgg(fn, "star")
    if isinstance(agg.arg, Combo):
        if fn not in ("sum", "avg"):
            raise UnsupportedFeature(f"{fn.upper()} over an expression is not supported")
        rx = _resolve(agg.arg.x, names, wh, fact)
        ry = _resolve(agg.arg.y, names, wh, fact)
        for r in (rx, ry):
            if r.table != fact:
                raise UnsupportedFeature("aggregates run on the FROM table only")
            if r.col.kind not in NUMBER_KINDS:
                raise UnsupportedFeature(f"cannot sum a {r.col.kind} column")
        if agg.arg.op in "+-":
            if rx.col.scale != ry.col.scale:
                raise SchemaMismatch(
                    f"{rx.name} and {ry.name} have different scales; "
                    "sum them through a derived column instead"
                )
            return PlannedAgg(fn, "combined", x=rx.name, y=ry.name, op=agg.arg.op)
        kind = {"*": "product", "/": "quotient"}[agg.arg.op]
        dcol = wh.type3.find(fact, kind, rx.name, ry.name)
        if dcol is None:
            raise MissingTypeThreeColumn(
                f"register a {kind} column for {rx.name}{agg.arg.op}{ry.name} "
                "to aggregate it"
            )
        return PlannedAgg(fn, "plain", attr=dcol.name)
    r = _resolve(agg.arg, names, wh, fact)
    if r.table != fact:
        raise UnsupportedFeature("aggregates run on the FROM table only")
    if fn == "count":
        return PlannedAgg(fn, "plain", attr=r.name)
    if fn in ("min", "max", "median"):
        _require_index(wh, fact, r.name)
        return PlannedAgg(fn, "plain", attr=r.name)
    if r.col.kind not in NUMBER_KINDS:
        raise UnsupportedFeature(f"cannot {fn.upper()} a {r.col.kind} column")
    if fn in ("var", "stddev"):
        dcol = wh.type3.find(fact, "square", r.name)
        if dcol is None:
            raise MissingTypeThreeColumn(
                f"{fn.upper()}({r.name}) needs a registered {r.name} squared column"
            )
        return PlannedAgg(fn, "plain", attr=r.name, square=dcol.name)
    return PlannedAgg(fn, "plain", attr=r.name)


# execution: every aggregate is evaluated over all groups at once. The
# groups of one evaluation are disjoint collections of distinct pks (GROUP
# BY partitions the filter, and so does one cube lattice level), so each
# provider is asked once per column over their union, and answers every
# group's share sum in the same request; a query without GROUP BY is the
# one-group case. A group stays the list _filter_pks and group_pks made,
# in ascending pk order, from the filter to the providers' kernels, which
# walk it in that order (provider._walks); a query without a filter hands the
# whole table over as Type I's own pk -> bitmap map, in its load order.


def present_pks(wh: Warehouse, table: str, attr: str, groups, csps) -> list:
    """Per group, its records whose attr is present, per the NULL markers
    of the providers in csps, each asked once over the union of the
    groups: the group itself when no provider marks one of them, else a
    list of its pks that are not marked, in the group's order (ascending
    pk order, or Type I's for the whole table; see above). All the
    providers that store a record (per its Type I bitmap) must agree on
    its marker, else InnerSignatureMismatch makes execute try another
    reconstruction group, which holds at least two members of every
    storage group."""
    union = groups[0] if len(groups) == 1 else list(chain.from_iterable(groups))
    reported = {i: wh.csps[i].null_pks(table, attr, union) for i in csps}
    nulls = set().union(*reported.values())
    if not nulls:
        return list(groups)
    absent = wh.type1.absent[table]
    # records marked NULL elsewhere that a provider stores but did not mark
    unmarked = set().union(*((nulls - reported[i]) - absent.get(i, set()) for i in csps))
    if unmarked:
        raise InnerSignatureMismatch(
            f"pk {min(unmarked)} of {table}: NULL marks of {attr} disagree across CSPs"
        )
    return [list(filterfalse(nulls.__contains__, g)) for g in groups]


# bias offsets, and pseudo-share corrections, one summed record adds to
# SUM(x), SUM(x+y) and SUM(x-y), where in the last both cancel
BIAS_TERMS = {None: 1, "+": 2, "-": 0}


def share_space_sums(wh: Warehouse, table: str, groups, csps, x: str,
                     y: str | None = None, op: str | None = None) -> list[tuple[int, ...]]:
    """Per group of pks, each provider's share of SUM(x), or of SUM(x op
    y), over it, in csps order: its own share sum plus HE2 of the
    pseudo-share sum of the records it does not store, once per term
    (both record polynomials of a pair pass through the same pseudo-share
    points). One share_sums request per provider and summed column."""
    km = wh.km
    p = km.p
    terms = BIAS_TERMS[op]
    per_csp = []
    for i in csps:
        csp = wh.csps[i]
        a = csp.share_sums(table, x, groups)
        if y is not None:
            # summed_pks has required x and y present on the same records
            b = csp.share_sums(table, y, groups)
            a = map(add if op == "+" else sub, a, b)
        if terms:
            m = terms * km.he2(1, km.id_of(i))
            a = map(add, a, [m * s for s in wh.type1.pseudo_sums(table, groups, i, p)])
        per_csp.append([v % p for v in a])
    return list(zip(*per_csp))


def summed_pks(wh: Warehouse, table: str, x: str, y: str | None, groups,
               csps) -> list:
    """Per group, the records SUM(x) or SUM(x op y) adds up: those with x
    present, which for a pair must be exactly those with y present."""
    present = present_pks(wh, table, x, groups, csps)
    if y is not None and present != present_pks(wh, table, y, groups, csps):
        raise SchemaMismatch(
            f"{x} and {y} have different NULL patterns; "
            "a pairwise sum is only defined when both sides are present"
        )
    return present


def share_space_parts(wh: Warehouse, table: str, agg: PlannedAgg, groups,
                      csps) -> list[tuple[list[int], tuple[int, ...], int]]:
    """The share-space rule of SUM and COUNT, per group of pks: the records
    agg counts, each provider's share (csps order) of the share-space sum
    over them, and the plaintext c that completes the value mod p: minus
    the surplus bias offsets for a SUM (of agg.attr, or agg.x op agg.y),
    the count for a COUNT, whose sum is 0. A query solves the shares and
    adds c; a cube refresh adds the shares and a sharing of c to a cell."""
    zero = (0,) * len(csps)
    if agg.fn == "count":
        counted = groups if agg.mode == "star" else present_pks(wh, table, agg.attr, groups, csps)
        return [(g, zero, len(g)) for g in counted]
    x = agg.attr or agg.x
    present = summed_pks(wh, table, x, agg.y, groups, csps)
    live = [g for g in present if g]
    sums = iter(share_space_sums(wh, table, live, csps, x, agg.y, agg.op) if live else ())
    surplus = BIAS_TERMS[agg.op] * wh.bias
    return [(g, next(sums) if g else zero, -surplus * len(g)) for g in present]


def _decode_sum(value: int, col: Column, p: int):
    raw = value % p
    if raw > p // 2:
        raw -= p
    if col.kind == "real":
        return Fraction(raw, 10**col.scale)
    return raw


def pair_column(schema, x: str, y: str) -> Column:
    """Output column of SUM(x op y); x and y must share a scale."""
    col_x, col_y = schema.column(x), schema.column(y)
    if col_x.scale != col_y.scale:
        raise SchemaMismatch(f"{x} and {y} have different scales")
    return col_x if col_x.kind == "real" else col_y


def _sums(wh: Warehouse, table: str, agg: PlannedAgg, groups, rg) -> tuple[list, list]:
    """SUM(x) or SUM(x op y) over each group (share_space_parts), 0 for one
    with nothing to add, and the records each added up. Each sum is
    accepted only through its own inner-signature check (solve_sums)."""
    schema = wh.schemas[table]
    x = agg.attr or agg.x
    out_col = schema.column(x) if agg.y is None else pair_column(schema, x, agg.y)
    rg = tuple(sorted(rg))
    parts = share_space_parts(wh, table, agg, groups, rg)
    live = [shares for g, shares, _ in parts if g]
    what = f"SUM({table}.{x}{agg.op or ''}{agg.y or ''})"
    totals = iter(solve_sums(rg, live, wh.km, what) if live else ())
    zero = Fraction(0) if out_col.kind == "real" else 0
    sums = [_decode_sum(next(totals) + c, out_col, wh.km.p) if g else zero for g, _, c in parts]
    return sums, [g for g, _, _ in parts]


def _extremes(wh: Warehouse, table: str, attr: str, fn: str, groups, rg) -> list:
    """MAX/MIN/MEDIAN of attr per group, None for a group without one: the
    index picks each group's record, and one reconstruct_values call
    rebuilds all their values, each checked against its inner signature."""
    picked = wh.type2.aggregates(table, attr, fn, groups)
    found = [pk for pk in picked if pk is not None]
    values = iter(wh.reconstruct_values(table, attr, found, rg) if found else ())
    return [None if pk is None else next(values) for pk in picked]


def _stddev(var: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 50
        root = (Decimal(var.numerator) / Decimal(var.denominator)).sqrt()
        return root.quantize(Decimal("0.000001"))


def aggregate_groups(wh: Warehouse, table: str, agg: PlannedAgg, groups, rg) -> list:
    """agg over each of groups, disjoint lists of distinct pks of table, in
    order; None where it is undefined (AVG, VAR, MAX... of no values).

    The one share-space primitive of query and cube: every provider of rg
    gets one NULL-mark and one share-sum request per column for all the
    groups, COUNT reads the Type II map once, and MAX/MIN/MEDIAN rebuild
    every group's value in one reconstruct_values call. VAR comes from
    SUM(x), SUM(x squared) and COUNT, all three reconstructed; the squares
    come from the derived shared column.
    """
    if not groups:
        return []
    fn = agg.fn
    if agg.mode == "star":
        return [len(g) for g in groups]
    if fn == "count":
        if wh.type2.is_indexed(table, agg.attr):
            return wh.type2.aggregates(table, agg.attr, "count", groups)
        return [c for _, _, c in share_space_parts(wh, table, agg, groups, rg)]
    if fn in ("min", "max", "median"):
        return _extremes(wh, table, agg.attr, fn, groups, rg)
    sums, present = _sums(wh, table, agg, groups, rg)
    if fn == "sum":
        return sums
    means = [Fraction(s, len(g)) if g else None for s, g in zip(sums, present)]
    if fn == "avg":
        return means
    live = [k for k, g in enumerate(present) if g]
    squares = iter(_sums(wh, table, PlannedAgg("sum", "plain", attr=agg.square),
                         [groups[k] for k in live], rg)[0])
    out = [None] * len(groups)
    for k in live:
        var = Fraction(next(squares), len(present[k])) - means[k] ** 2
        out[k] = var if fn == "var" else _stddev(var)
    return out


# one-group entry points: pks is any iterable of pks, each counted once


def _one_group(pks) -> list[list[int]]:
    return [list(dict.fromkeys(pks))]


def exec_sum(wh: Warehouse, table: str, attr: str, pks, rg):
    """SUM(attr) over the filtered records; 0 on an empty filter."""
    return aggregate_groups(wh, table, PlannedAgg("sum", "plain", attr=attr), _one_group(pks),
                            rg)[0]


def exec_count(wh: Warehouse, table: str, attr: str | None, pks, rg) -> int:
    agg = PlannedAgg("count", "star") if attr is None else PlannedAgg("count", "plain", attr=attr)
    return aggregate_groups(wh, table, agg, _one_group(pks), rg)[0]


def exec_minmax_count(wh: Warehouse, table: str, attr: str, fn: str, pks, rg):
    """MAX/MIN/MEDIAN through the index, EmptyInput when no record has
    attr; COUNT never touches a provider."""
    if fn == "count":
        return exec_count(wh, table, attr, pks, rg)
    value = aggregate_groups(wh, table, PlannedAgg(fn, "plain", attr=attr), _one_group(pks),
                             rg)[0]
    if value is None:
        raise EmptyInput(f"{fn.upper()}({attr}) over no values")
    return value


def _apply_pk_predicate(pks, op: str, operand) -> set[int]:
    """The members of pks (a set, or Type I's pk -> bitmap map) that
    satisfy `pk op operand`. A `between` or `=` whose bounds hold fewer
    integers than pks has members probes those integers against pks
    instead of testing every pk."""
    if op == "in":
        return set(pks).intersection(operand)
    if op in ("between", "="):
        lo, hi = operand if op == "between" else (operand, operand)
        first, last = ceil(lo), floor(hi)
        if last - first < len(pks):
            return set(filter(pks.__contains__, range(first, last + 1)))
        return {pk for pk in pks if lo <= pk <= hi}
    compare = _COMPARISONS[op]
    return {pk for pk in pks if compare(pk, operand)}


def _filter_pks(wh: Warehouse, plan: QueryPlan):
    """The fact pks every filter step keeps, from the first step's set on
    (Warehouse.load refuses a Type II entry that Type I lacks), as a list
    in ascending pk order; with no filter step, every fact pk, as Type I's
    own pk -> bitmap map (not a copy: callers must not modify it). A key
    predicate tests Type I's pks, any other a Type II lookup; a dimension's
    matches reach the facts through the fk's index."""
    pks = None
    for step in plan.filter_steps:
        source = step.source
        if source.route == "pk":
            found = _apply_pk_predicate(wh.type1.entries[plan.fact] if pks is None else pks,
                                        step.op, step.operand)
        elif source.route == "dim_pk":
            found = _apply_pk_predicate(wh.type1.entries[source.table], step.op, step.operand)
        else:
            found = wh.type2.lookup(source.table, source.attr, step.op, step.operand)
        if source.fk is not None:
            found = wh.type2.lookup(plan.fact, source.fk, "in", found)
        pks = found if pks is None else pks & found
    return wh.type1.entries[plan.fact] if pks is None else sorted(pks)


def group_key_fn(wh: Warehouse, fact: str, source: GroupSource):
    """Raw group keys of fact pks, resolved through the index server: a
    function from a list of pks to an iterable of their index keys, in
    order, None where the key is NULL. typed_value(key, kind, scale) of
    source.col gives a key's plaintext."""
    if source.route == "pk":
        return lambda pks: pks
    if source.route in ("fk", "fact_attr"):
        vm = wh.type2.value_map(fact, source.attr)
        return lambda pks: map(vm.get, pks)
    fk_map = wh.type2.value_map(fact, source.fk)
    if source.route == "dim_pk":
        return lambda pks: map(fk_map.get, pks)
    vm = wh.type2.value_map(source.table, source.attr)
    return lambda pks: map(vm.get, map(fk_map.get, pks))


def group_pks(wh: Warehouse, fact: str, sources, pks) -> dict[tuple, list[int]]:
    """Fact pks grouped by their plaintext keys under the group sources,
    each group a list in the order of pks. Grouping runs on raw index
    keys, a source's own key for one source and a tuple of them for
    several; typed_value is injective per column, so converting once per
    distinct key gives the same groups."""
    pks = list(pks)
    columns = [group_key_fn(wh, fact, s)(pks) for s in sources]
    raw: dict = {}
    add = raw.setdefault
    for pk, key in zip(pks, columns[0] if len(columns) == 1 else zip(*columns)):
        add(key, []).append(pk)
    cols = [s.col for s in sources]
    if len(cols) == 1:
        kind, scale = cols[0].kind, cols[0].scale
        return {(typed_value(key, kind, scale),): members for key, members in raw.items()}
    return {
        tuple(typed_value(k, c.kind, c.scale) for k, c in zip(key, cols)): members
        for key, members in raw.items()
    }


def group_order(key: tuple) -> tuple:
    """Sort key of plaintext group keys: values before NULL, numbers before strings."""
    return tuple((v is None, isinstance(v, str), v) for v in key)


def _execute_with(wh: Warehouse, plan: QueryPlan, rg) -> list[tuple]:
    pks = _filter_pks(wh, plan)
    if plan.row_mode:
        order = sorted(pks)
        columns = []
        for item in plan.items:
            r = item.attr
            if item.fk is None:
                columns.append(wh.reconstruct_values(plan.fact, r.name, order, rg))
                continue
            # each referenced dimension record is reconstructed once
            dim_pks = list(map(wh.type2.value_map(plan.fact, item.fk).get, order))
            wanted = [pk for pk in dict.fromkeys(dim_pks) if pk is not None]
            values = dict(zip(wanted, wh.reconstruct_values(r.table, r.name, wanted, rg)))
            columns.append(list(map(values.get, dim_pks)))
        return list(zip(*columns))

    if plan.group_sources:
        groups = group_pks(wh, plan.fact, plan.group_sources, pks)
    else:
        groups = {(): pks}
    keys = sorted(groups, key=group_order)
    members = [groups[key] for key in keys]
    columns = [
        [key[item.group_index] for key in keys] if item.kind == "group"
        else aggregate_groups(wh, plan.fact, item.agg, members, rg)
        for item in plan.items
    ]
    return list(zip(*columns))


def headers(plan: QueryPlan) -> list[str]:
    return [item.header for item in plan.items]


def execute(wh: Warehouse, plan_or_text, rg=None) -> tuple[list[str], list[tuple]]:
    """Run a plan (or query text) and return (headers, rows).

    With an explicit rg the first signature mismatch is fatal; otherwise
    reconstruction groups rotate deterministically until one verifies.
    """
    qplan = plan_or_text
    if isinstance(plan_or_text, str):
        qplan = plan(parse(plan_or_text), wh)
    return headers(qplan), wh.read_through(rg, lambda group: _execute_with(wh, qplan, group))
