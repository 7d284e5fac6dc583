"""Shared OLAP cubes: build, refresh and slice without full rebuilds.

A cube is an ordinary shared table (id ``cube:<name>``) whose rows live
at every provider. Base-table sharing leans on pk-derived pseudo shares
so a subset of providers can hold a record; a cube cell has no source
pk to derive them from, so its polynomial is pinned instead at the t-2
reserved filler abscissas with seeded pseudo-random ordinates (the fold
of sharing.pinned_coefficients). Every provider stores a real share and
any t of them rebuild a measure along with its inner signature.

Dimension columns hold plaintext group keys and double as the level
encoding: NULL means "aggregated away". The grand total row is NULL
across every dimension; a per-year row keeps only the year, and so on
through the lattice of hierarchy prefixes.

A cube has one write path, a fold of facts into it: a build folds every
fact into an empty cube, a refresh folds new facts into a built one and
never rebuilds. The fold reads every lattice level under one
Warehouse.read_through (a pinned reconstruction group fails on its
first signature mismatch, otherwise groups rotate past it) before it
writes anything, so a build that raises leaves no cube and a refresh
that raises leaves the cube as it was. The cells of a level are
disjoint groups of fact records, so each measure is evaluated over all
of them at once by query.aggregate_groups, as queries do. Changed
cells are rewritten by one Warehouse.write and new cells appended by
another, which also files their dimension keys. An existing SUM or
COUNT cell is never reconstructed: a provider adds its part of query's
share-space rule (share_space_parts) over the new records and its share
of the rule's plaintext c, under fillers keyed by the cell and the
refresh. MAX/MIN cells re-share the new extremal record's value under
such fillers. So the difference between a provider's old and new share
of a cell is noise to that provider.

Cells are shared a column at a time (share_cell_chunks), with every
filler ordinate of a column from one KeyMaterial.seed_macs call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from typing import NamedTuple

from .errors import (
    CspUnavailable,
    DuplicateTable,
    NotIndexed,
    SchemaMismatch,
    UnknownRecordPosition,
    UnknownTable,
    UnsupportedFeature,
)
from .keyed import KeyMaterial
from .sharing import Column, Schema, encode_column, pinned_coefficients
from .store import Warehouse
from .query import (
    GroupSource,
    PlannedAgg,
    aggregate_groups,
    group_order,
    group_pks,
    group_source,
    literal_operand,
    pair_column,
    share_space_parts,
)

MEASURE_FNS = ("sum", "count", "min", "max", "avg")


class CubeHierarchy(NamedTuple):
    """One dimension, coarse to fine (e.g. year, month, day).

    Attributes live either on the fact table itself (table=None) or on a
    dimension table reached through the fact's fk column.
    """
    attrs: tuple[str, ...]
    table: str | None = None
    fk: str | None = None


class CubeMeasure(NamedTuple):
    fn: str
    attr: str | None = None   # None counts rows; "x+y" / "x-y" sums a pair
    name: str | None = None   # cube column label, defaulted from fn and attr


class CubeSpec(NamedTuple):
    name: str
    table: str
    hierarchies: tuple[CubeHierarchy, ...]
    measures: tuple[CubeMeasure, ...]


def cube_table(spec: CubeSpec) -> str:
    return f"cube:{spec.name}"


def _split_pair(attr: str):
    for op in "+-":
        if op in attr:
            x, y = attr.split(op, 1)
            return x.strip(), op, y.strip()
    return None


# storage layout: avg is never stored directly, its sum and count are


class _StoredMeasure(NamedTuple):
    column: Column
    agg: PlannedAgg           # SUM, SUM of a pair, COUNT, MIN or MAX on the fact table


class _MeasureLayout(NamedTuple):
    stored: tuple[_StoredMeasure, ...]              # in cube column order
    reads: tuple[tuple[str, tuple[str, ...]], ...]  # per spec measure: label, stored columns


def _sum_column(schema: Schema, name: str, attr: str) -> Column:
    col = schema.column(attr)
    if col.kind not in ("int", "real", "bool"):
        raise UnsupportedFeature(f"cannot sum a {col.kind} column into a cube")
    if col.kind == "real":
        return Column(name, "real", scale=col.scale)
    return Column(name, "int")


@lru_cache(maxsize=64)
def _measure_layout(spec: CubeSpec, schema: Schema) -> _MeasureLayout:
    """The one naming of the stored measure columns of a cube over the
    fact schema: each measure's SUM, COUNT, MIN or MAX column, AVG as its
    SUM and COUNT, equal columns stored once. Per spec measure, its output
    label and the stored columns it reads, AVG its SUM and COUNT in that
    order. Memoized by value (the spec and the schema)."""
    stored: dict[str, _StoredMeasure] = {}
    reads = []

    def add(col: Column, agg: PlannedAgg) -> str:
        stored.setdefault(col.name, _StoredMeasure(col, agg))
        return col.name

    for m in spec.measures:
        if m.fn not in MEASURE_FNS:
            raise UnsupportedFeature(f"unknown cube measure {m.fn!r}")
        pair = _split_pair(m.attr) if m.attr else None
        if m.fn in ("sum", "avg"):
            if m.attr is None:
                raise SchemaMismatch(f"{m.fn.upper()} needs a measure attribute")
            if pair:
                x, op, y = pair
                suffix = f"{x}_{'plus' if op == '+' else 'minus'}_{y}"
                names = [add(_sum_column(schema, f"sum_{suffix}", pair_column(schema, x, y).name),
                             PlannedAgg("sum", "combined", x=x, y=y, op=op))]
            else:
                suffix = m.attr
                names = [add(_sum_column(schema, f"sum_{suffix}", m.attr),
                             PlannedAgg("sum", "plain", attr=m.attr))]
            if m.fn == "avg":
                counted = pair[0] if pair else m.attr
                names.append(add(Column(f"count_{counted}", "int"), _count(counted)))
            label = f"{m.fn}_{suffix}"
        elif m.fn == "count":
            if pair:
                raise UnsupportedFeature("COUNT over a pair is not supported")
            label = f"count_{m.attr}" if m.attr else "count_rows"
            names = [add(Column(label, "int"), _count(m.attr))]
        else:
            if m.attr is None or pair:
                raise UnsupportedFeature(f"{m.fn.upper()} needs a single attribute")
            col = schema.column(m.attr)
            label = f"{m.fn}_{m.attr}"
            names = [add(Column(label, col.kind, scale=col.scale),
                         PlannedAgg(m.fn, "plain", attr=m.attr))]
        reads.append((m.name or label, tuple(names)))
    return _MeasureLayout(tuple(stored.values()), tuple(reads))


def _count(attr: str | None) -> PlannedAgg:
    return PlannedAgg("count", "star") if attr is None else PlannedAgg("count", "plain", attr=attr)


def _dim_sources(wh: Warehouse, spec: CubeSpec) -> list[tuple[Column, GroupSource]]:
    """Cube dimension columns paired with their plaintext key resolution."""
    fact = spec.table
    fact_schema = wh.schemas[fact]
    out = []
    seen = set()
    for h in spec.hierarchies:
        if not h.attrs:
            raise SchemaMismatch("a cube hierarchy cannot be empty")
        for attr in h.attrs:
            if attr in seen:
                raise SchemaMismatch(f"duplicate cube dimension {attr}")
            seen.add(attr)
            table, fk = fact, None
            if h.table is not None:
                if h.table not in wh.schemas:
                    raise UnknownTable(h.table)
                if h.fk is None:
                    raise SchemaMismatch(f"hierarchy on {h.table} needs the fact fk column")
                fk_col = fact_schema.column(h.fk)
                if fk_col.kind != "fk" or fk_col.fk_table not in (None, h.table):
                    raise SchemaMismatch(f"{fact}.{h.fk} does not reference {h.table}")
                table, fk = h.table, h.fk
            try:
                src = group_source(wh, table, attr, fk)
            except NotIndexed:
                raise NotIndexed(f"{table}.{attr} must be indexed to key a cube") from None
            kind = "int" if src.col.kind in ("key", "fk") else src.col.kind
            out.append((Column(attr, kind, scale=src.col.scale), src))
    return out


def cube_table_spec(wh: Warehouse, spec: CubeSpec) -> tuple[Schema, tuple[str, ...], tuple]:
    """The cube's table as Warehouse.create_table and load take it: its
    schema (synthetic cell key, then one plaintext-keyed column per
    hierarchy attribute, then the stored measure columns), the dimension
    columns it indexes, and no derived columns."""
    if spec.table not in wh.schemas:
        raise UnknownTable(spec.table)
    dims = [col for col, _ in _dim_sources(wh, spec)]
    measures = [sm.column for sm in _measure_layout(spec, wh.schemas[spec.table]).stored]
    clash = {c.name for c in dims} & {c.name for c in measures}
    if clash:
        raise SchemaMismatch(f"cube column name collision: {sorted(clash)}")
    schema = Schema(cube_table(spec), (Column("cell", "key"), *dims, *measures))
    return schema, tuple(col.name for col in dims), ()


# sharing: every provider stores a real share, fillers replace pseudo shares


def cell_coefficients(km: KeyMaterial) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(i, A_i, F_i) for every provider i, ascending, such that its share
    of a cube cell chunk v with filler ordinates f is
    (A_i*v + sum(F_ij * f_j)) % p."""
    return pinned_coefficients(km.share_basis, tuple(km.x_filler(j) for j in range(km.t - 2)),
                               range(1, km.n + 1))


def share_cell_chunks(km: KeyMaterial, table: str, attr: str, chunks,
                      refresh: int | None = None) -> list[list[int]]:
    """Every provider's shares, in provider order, of (cell pk, chunk
    index, chunk) triples of one cube column: per chunk, the polynomial
    through the data point, its signature point and, at filler j, the
    seed MAC of cubefill|table|pk|attr|chunk index|j (|refresh r appended
    when refresh r rewrites the cell), all from one seed_macs call. Of 0
    it is a zero-sharing: adding it changes every share but no value."""
    p, fills = km.p, range(km.t - 2)
    tails = [f"|{j}".encode() if refresh is None else f"|{j}|refresh {refresh}".encode()
             for j in fills]
    macs = km.seed_macs([head + tail for head in [f"cubefill|{table}|{pk}|{attr}|{k}".encode()
                                                  for pk, k, _ in chunks] for tail in tails])
    ordinates = [int.from_bytes(mac[:16], "big") % p for mac in macs]
    fillers = [ordinates[j::len(fills)] for j in fills]
    values = [v for _, _, v in chunks]
    out = []
    for _, a, f in cell_coefficients(km):
        shares = [a * v for v in values]
        for fij, ordinate in zip(f, fillers):
            shares = [s + fij * o for s, o in zip(shares, ordinate)]
        out.append([s % p for s in shares])
    return out


def share_cell_chunk(km: KeyMaterial, table: str, pk: int, attr: str,
                     chunk_index: int, value: int, refresh: int | None = None) -> dict[int, int]:
    """share_cell_chunks of one chunk: its share per provider."""
    shares = share_cell_chunks(km, table, attr, [(pk, chunk_index, value)], refresh)
    return {i: column[0] for i, column in enumerate(shares, 1)}


def _shared_column(km: KeyMaterial, table: str, attr: str, pks, chunks,
                   refresh: int | None = None) -> list[list]:
    """Every provider's column of shares, in provider order, of one cube
    column's values by cell pk, given as their chunks (encode_column): an
    int for a number, a tuple for a string, None for NULL. All the
    chunks are one share_cell_chunks batch."""
    triples = [(pk, k, c) for pk, value in zip(pks, chunks) if value is not None
               for k, c in ([(0, value)] if type(value) is int else enumerate(value))]
    return [[None if v is None else next(taken) if type(v) is int else tuple(islice(taken, len(v)))
             for v in chunks]
            for taken in map(iter, share_cell_chunks(km, table, attr, triples, refresh))]


def _require_all_alive(wh: Warehouse):
    dead = [i for i in sorted(wh.csps) if not wh.csps[i].alive]
    if dead:
        raise CspUnavailable(
            f"cube rows live at every CSP; recover {dead} before writing"
        )


# lattice bookkeeping


def _lattice(spec: CubeSpec):
    """Per lattice level, one flag per dimension: on where it stays
    concrete, a prefix of each hierarchy."""
    for depths in product(*(range(len(h.attrs) + 1) for h in spec.hierarchies)):
        yield [i < depth for h, depth in zip(spec.hierarchies, depths) for i in range(len(h.attrs))]


def _fact_keys(wh: Warehouse, spec: CubeSpec, pks) -> dict[tuple, list[int]]:
    """Fact pks grouped by their full dimension key."""
    groups = group_pks(wh, spec.table, [src for _, src in _dim_sources(wh, spec)], pks)
    for key, members in groups.items():
        if None in key:
            raise SchemaMismatch(
                f"fact {members[0]} has a NULL dimension value; NULL is reserved "
                "for cube superaggregates"
            )
    return groups


def _cells(by_key: dict[tuple, list[int]], flags) -> dict[tuple, list[int]]:
    """Members of each cell at one lattice level: the dimensions whose
    flag is off are aggregated away to NULL."""
    cells: dict[tuple, list[int]] = {}
    for key, members in by_key.items():
        cell = tuple(v if on else None for v, on in zip(key, flags))
        cells.setdefault(cell, []).extend(members)
    return cells


def _cells_by_key(wh: Warehouse, spec: CubeSpec) -> dict[tuple, int]:
    """Existing cube rows addressed by their (padded) dimension tuple,
    grouped through the cube's own dimension sources; SchemaMismatch when
    two rows share one."""
    table = cube_table(spec)
    sources = [group_source(wh, table, col.name) for col, _ in _dim_sources(wh, spec)]
    return _one_cell_each(table, group_pks(wh, table, sources, wh.type1.pks(table)))


def _one_cell_each(table: str, cells: dict[tuple, list[int]]) -> dict[tuple, int]:
    """The one cell pk of each dimension key; SchemaMismatch when two
    cells share one."""
    for key, pks in cells.items():
        if len(pks) > 1:
            raise SchemaMismatch(f"{table} has cells {pks} of one dimension key {key}")
    return {key: pk for key, (pk,) in cells.items()}


def _level_rows(wh: Warehouse, spec: CubeSpec, dims, stored, groups: dict, cells, rg) -> list[dict]:
    """The rows of the given cells of one lattice level, in order: each
    stored measure evaluated over all the cells at once."""
    names = [c.name for c in dims]
    members = [groups[cell] for cell in cells]
    columns = [(sm.column.name, aggregate_groups(wh, spec.table, sm.agg, members, rg))
               for sm in stored]
    rows = []
    for k, cell in enumerate(cells):
        row = dict(zip(names, cell))
        row.update((name, values[k]) for name, values in columns)
        rows.append(row)
    return rows


# writing: a build and a refresh are one fold


def _new_cells(wh: Warehouse, schema: Schema, first: int, rows, dims) -> tuple:
    """Warehouse.write's arguments for the new cells' rows, numbered from
    first and stored at every provider: each value encoded once, for its
    shares (one _shared_column per cube column) and, for a dimension of
    dims, its order key, by one encode_column per cube column."""
    n = wh.km.n
    pks = list(range(first, first + len(rows)))
    shared, keys = [], {}
    for col in schema.columns[1:]:
        column, chunks = encode_column([row.get(col.name) for row in rows], col.kind,
                                       scale=col.scale, bias=wh.bias, p=wh.km.p)
        shared.append(_shared_column(wh.km, schema.table, col.name, pks, chunks))
        if col.name in dims:
            keys[col.name] = column
    per_csp = {i: (pks, [column[i - 1] for column in shared]) for i in range(1, n + 1)}
    return pks, per_csp, keys, ["1" * n] * len(pks)


def _rewritten_cells(wh: Warehouse, schema: Schema, pks, deltas: dict, replacements: dict,
                     refresh: int | None) -> tuple:
    """Warehouse.write's pks and provider columns for the changed cells
    pks, as _cell_changes gives them: each provider's records read back,
    the measures of deltas (each provider's column of share deltas, in
    provider order) moved in share space, and those of replacements (the
    cells' new values) re-shared under fillers keyed by the refresh. Its
    dimensions, and so its order keys, stay."""
    km, p = wh.km, wh.km.p
    reshared = {}
    for name, values in replacements.items():
        col = schema.column(name)
        reshared[name] = _shared_column(km, schema.table, name, pks, encode_column(
            values, col.kind, scale=col.scale, bias=wh.bias, p=p)[1], refresh)
    names = [name for name, _ in schema.record_fields()]
    per_csp = {}
    for i in range(1, km.n + 1):
        values = wh.csps[i].fetch_records(schema, pks)
        for f, name in enumerate(names):
            if name in deltas:
                values[f] = [(s + d) % p for s, d in zip(values[f], deltas[name][i - 1])]
            elif name in reshared:
                values[f] = reshared[name][i - 1]
        per_csp[i] = pks, values
    return pks, per_csp


def cube_build(wh: Warehouse, spec: CubeSpec, rg=None) -> int:
    """Fold every fact into an empty cube, as cube_refresh folds new facts
    into a built one, and store it at all n providers. Returns the number
    of cells. The cube table is created only once every level has been
    read, so a build that raises leaves no cube and can be run again."""
    _require_all_alive(wh)
    if cube_table(spec) in wh.schemas:
        raise DuplicateTable(cube_table(spec))
    return _fold(wh, spec, cube_table_spec(wh, spec), {}, wh.type1.pks(spec.table), rg)


def cube_refresh(wh: Warehouse, spec: CubeSpec, new_pks, rg=None) -> int:
    """Fold freshly loaded fact records into a built cube.

    SUM and COUNT cells update purely in share space (never
    reconstructed), and MAX/MIN cells re-share the extremal record found
    through the record index. Every rewrite of a cell is masked afresh:
    SUM and COUNT deltas carry a zero-sharing, and re-shared values new
    filler ordinates, both keyed by the cell and the refresh (its
    smallest new fact pk), so a provider that keeps its old cube file
    cannot read a cell's change from its own shares. The caller folds
    each fact into a cube once: nothing here remembers which facts a
    cube holds, and a fact refreshed twice is counted twice. Returns the
    number of touched or created cells. Providers that disagree on a new
    record's NULL marker raise InnerSignatureMismatch. A refresh that
    raises leaves the cube as it was.
    """
    _require_all_alive(wh)
    table = cube_table(spec)
    if table not in wh.schemas:
        raise UnknownTable(table)
    new_pks = sorted(set(new_pks))
    unknown = [pk for pk in new_pks if not wh.type1.has(spec.table, pk)]
    if unknown:
        raise UnknownRecordPosition(f"not fact records: {unknown}")
    return _fold(wh, spec, None, _cells_by_key(wh, spec), new_pks, rg)


def _fold(wh: Warehouse, spec: CubeSpec, new_table, cells: dict[tuple, int], new_pks,
          rg) -> int:
    """Fold the facts new_pks into the cube whose cells are cells (pk by
    dimension tuple); new_table is the table spec of a cube to create
    once every level has been read (the rows of its new cells, the
    _cell_changes of its existing ones), None for a built one. New cells
    are numbered after the existing ones in level and cell order.
    Returns the number of touched or created cells."""
    schema = new_table[0] if new_table else wh.schemas[cube_table(spec)]
    dims = [col for col, _ in _dim_sources(wh, spec)]
    stored = _measure_layout(spec, wh.schemas[spec.table]).stored
    new_keys = _fact_keys(wh, spec, new_pks)
    # MIN/MAX cells are re-derived from every member, old facts included
    all_keys = {}
    if cells and new_pks and any(sm.agg.fn in ("min", "max") for sm in stored):
        all_keys = _fact_keys(wh, spec, wh.type1.pks(spec.table))
    levels = [(_cells(new_keys, flags), _cells(all_keys, flags)) for flags in _lattice(spec)]
    refresh = new_pks[0] if new_pks else None

    def read(rg):
        rows, known = [], []
        for new_groups, all_groups in levels:
            order = sorted(new_groups, key=group_order)
            rows += _level_rows(wh, spec, dims, stored, new_groups,
                                [cell for cell in order if cell not in cells], rg)
            old = [cell for cell in order if cell in cells]
            if old:
                known.append(([cells[cell] for cell in old], [new_groups[cell] for cell in old],
                              [all_groups.get(cell) for cell in old]))
        return rows, _cell_changes(wh, spec, stored, known, refresh, rg)

    rows, (changed, deltas, replacements) = wh.read_through(rg, read)
    new_cells = _new_cells(wh, schema, max(cells.values(), default=0) + 1, rows,
                           {col.name for col in dims})
    if deltas or replacements:
        wh.write(schema, *_rewritten_cells(wh, schema, changed, deltas, replacements,
                                           refresh), {})
    if new_table:
        wh.create_table(*new_table)
    if rows:
        wh.write(schema, *new_cells)
    return sum(len(new_groups) for new_groups, _ in levels)


def _cell_changes(wh: Warehouse, spec: CubeSpec, stored, levels, refresh,
                  rg) -> tuple[list[int], dict, dict]:
    """_rewritten_cells' pks, deltas and replacements for the existing
    cells of levels, (their pks, new members, and for MIN/MAX all their
    members) per lattice level, each measure evaluated over a level's
    cells at once. A SUM's or COUNT's delta at a provider is its share of
    the share-space sum over the new members (query.share_space_parts)
    plus its share of the plaintext c under the refresh's fillers, which
    carries the cell's zero-sharing, all cells in one share_cell_chunks
    call. MIN/MAX take the value of the cell's extremal record."""
    fact, table, km = spec.table, cube_table(spec), wh.km
    csps, p = sorted(wh.csps), km.p
    pks = [pk for cell_pks, _, _ in levels for pk in cell_pks]
    deltas, replacements = {}, {}
    if not pks:
        return pks, deltas, replacements
    for sm in stored:
        agg, name = sm.agg, sm.column.name
        if agg.fn in ("min", "max"):
            replacements[name] = [value for _, _, members in levels
                                  for value in aggregate_groups(wh, fact, agg, members, rg)]
            continue
        parts = [part for _, members, _ in levels
                 for part in share_space_parts(wh, fact, agg, members, csps)]
        masks = share_cell_chunks(km, table, name,
                                  [(pk, 0, c % p) for pk, (_, _, c) in zip(pks, parts)], refresh)
        deltas[name] = [[(shared[k] + m) % p for (_, shared, _), m in zip(parts, mask)]
                        for k, mask in enumerate(masks)]
    return pks, deltas, replacements


# querying


def cube_query(wh: Warehouse, spec: CubeSpec, level, where=(), rg=None):
    """Read one grouping set straight from the cube.

    level names the dimension attributes that stay concrete (a prefix of
    each hierarchy); everything else must be NULL, which is exactly how
    the aggregation level is stored. where holds (attr, op, value)
    predicates on level attributes. Returns (headers, rows) with measures
    reconstructed from any t providers: rg pins them, else reconstruction
    groups rotate until one verifies.
    """
    table = cube_table(spec)
    if table not in wh.schemas:
        raise UnknownTable(table)
    level = tuple(level)
    dims = [wh.schemas[table].column(a) for h in spec.hierarchies for a in h.attrs]
    by_name = {col.name: col for col in dims}
    for h in spec.hierarchies:
        chosen = [a for a in h.attrs if a in level]
        if chosen != list(h.attrs[: len(chosen)]):
            raise SchemaMismatch(
                f"level must be a prefix of hierarchy {h.attrs}; got {chosen}"
            )
    unknown = set(level) - set(by_name)
    if unknown:
        raise SchemaMismatch(f"not cube dimensions: {sorted(unknown)}")

    pks = set(wh.type1.pks(table))
    maps = {col.name: wh.type2.value_map(table, col.name) for col in dims}
    for col in dims:
        if col.name in level:
            pks &= set(maps[col.name])
        else:
            pks -= set(maps[col.name])
    for attr, op, value in where:
        if attr not in level:
            raise SchemaMismatch(f"{attr} is aggregated away at this level")
        pks &= wh.type2.lookup(table, attr, op, literal_operand(value, by_name[attr], op))

    pks = sorted(pks)
    if level:
        groups = group_pks(wh, table, [group_source(wh, table, a) for a in level], pks)
    else:   # the grand total: one group, of the cell whose every dimension is NULL
        groups = {(): pks} if pks else {}
    cells = _one_cell_each(table, groups)
    keys = sorted(cells, key=group_order)
    order = [cells[key] for key in keys]
    reads = _measure_layout(spec, wh.schemas[spec.table]).reads

    def measures(rg) -> list[list]:
        out = []
        for _, names in reads:
            columns = [wh.reconstruct_values(table, name, order, rg) for name in names]
            if len(columns) == 2:   # AVG: its SUM over its COUNT
                sums, counts = columns
                columns = [[None if not c else Fraction(s) / c for s, c in zip(sums, counts)]]
            out += columns
        return out

    values = wh.read_through(rg, measures)
    rows = [key + tuple(column[k] for column in values) for k, key in enumerate(keys)]
    return list(level) + [label for label, _ in reads], rows
