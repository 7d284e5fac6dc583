"""INI configuration for the command line.

A config file names the scheme parameters, the store root, the table
schemas with their index and derived columns, any cube definitions, and
a pricing sheet. Example::

    [scheme]
    n = 5
    t = 4
    seed = 000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f

    [store]
    root = ./warehouse

    [table:Product]
    columns = ProdNo key, pname string, category string

    [table:Sales]
    columns = SaleNo key, ProdNo fk table=Product, yearid int,
              price real scale=2, qty int

    [indexes]
    Sales = yearid, price

    [derived]
    Sales = price_sq square price scale=4

    [cube:sales_by_year]
    table = Sales
    hierarchies = yearid ; Product via ProdNo: category
    measures = sum(price), count(*)

Column entries are ``name kind`` plus optional ``scale=N`` (reals) and
``table=T`` (foreign keys). Derived entries are ``name kind x [y]
[scale=N]`` separated by semicolons. The ``FVSS_SEED`` environment
variable overrides the configured seed.
"""

from __future__ import annotations

import configparser
import os
from pathlib import Path
from typing import NamedTuple

from .cost import PricingPolicy, reference_pricing
from .cube import MEASURE_FNS, CubeHierarchy, CubeMeasure, CubeSpec, cube_table_spec
from .errors import ConfigError
from .field import P_DEFAULT
from .index import DerivedColumn
from .keyed import KeyMaterial, init_participants
from .sharing import DATA_KINDS, Column, Schema
from .store import Warehouse

_DERIVED_KINDS = ("square", "product", "quotient")


class _ConfigFields(NamedTuple):
    n: int
    t: int
    p: int
    seed: bytes
    root: Path
    w: int
    weights: tuple[float, ...] | None
    bias: int | None
    pricing: PricingPolicy
    # (schema, index_attrs, derived) triples in declaration order
    tables: tuple[tuple[Schema, tuple[str, ...], tuple[DerivedColumn, ...]], ...]
    cubes: dict[str, CubeSpec]


class AppConfig(_ConfigFields):
    """A parsed configuration. Left out, pricing is the reference sheet
    and cubes a new empty dict per config."""
    __slots__ = ()

    def __new__(cls, n, t, p, seed, root, w=3, weights=None, bias=None, pricing=None,
                tables=(), cubes=None):
        return super().__new__(cls, n, t, p, seed, root, w, weights, bias,
                               reference_pricing() if pricing is None else pricing, tables,
                               {} if cubes is None else cubes)

    def key_material(self) -> KeyMaterial:
        return init_participants(self.n, self.t, self.seed, p=self.p)

    def new_warehouse(self, km: KeyMaterial) -> Warehouse:
        return Warehouse(
            km,
            w=self.w,
            weights=self.weights,
            bias=self.bias,
            svm_prices=self.pricing.svm,
        )


def _int(section, key, raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer")


def _split(raw: str, sep: str = ",") -> list[str]:
    return [part.strip() for part in raw.split(sep) if part.strip()]


def _parse_column(table: str, entry: str) -> Column:
    tokens = entry.split()
    if len(tokens) < 2:
        raise ConfigError(f"[table:{table}] column entry {entry!r} needs a name and a kind")
    name, kind = tokens[0], tokens[1]
    if kind not in ("key", "fk") + DATA_KINDS:
        raise ConfigError(f"[table:{table}] column {name} has unknown kind {kind!r}")
    scale = 0
    fk_table = None
    for opt in tokens[2:]:
        if opt.startswith("scale="):
            if kind != "real":
                raise ConfigError(f"[table:{table}] {kind} column {name} takes no scale")
            scale = _int(f"table:{table}", name, opt[len("scale="):])
        elif opt.startswith("table="):
            fk_table = opt[len("table="):]
        else:
            raise ConfigError(f"[table:{table}] column {name} has unknown option {opt!r}")
    if kind == "fk" and fk_table is None:
        raise ConfigError(f"[table:{table}] fk column {name} needs table=<name>")
    return Column(name, kind, scale=scale, fk_table=fk_table)


def _parse_derived(table: str, raw: str) -> tuple[DerivedColumn, ...]:
    out = []
    for entry in _split(raw, ";"):
        tokens = entry.split()
        opts = [tok for tok in tokens if tok.startswith("scale=")]
        args = [tok for tok in tokens if not tok.startswith("scale=")]
        if len(args) not in (3, 4):
            raise ConfigError(
                f"[derived] {table} entry {entry!r} must be 'name kind x [y] [scale=N]'"
            )
        name, kind = args[0], args[1]
        if kind not in _DERIVED_KINDS:
            raise ConfigError(f"[derived] {table}.{name} has unknown kind {kind!r}")
        if kind == "square" and len(args) != 3:
            raise ConfigError(f"[derived] {table}.{name}: square takes one source column")
        if kind != "square" and len(args) != 4:
            raise ConfigError(f"[derived] {table}.{name}: {kind} takes two source columns")
        scale = _int("derived", name, opts[0][len("scale="):]) if opts else 0
        y = args[3] if len(args) == 4 else None
        out.append(DerivedColumn(table, name, kind, args[2], y=y, scale=scale))
    return tuple(out)


def _parse_hierarchy(name: str, entry: str) -> CubeHierarchy:
    if ":" in entry:
        head, attrs = entry.split(":", 1)
        head_tokens = head.split()
        if len(head_tokens) != 3 or head_tokens[1] != "via":
            raise ConfigError(
                f"[cube:{name}] hierarchy {entry!r} must be 'Table via fk_col: a, b'"
            )
        return CubeHierarchy(
            tuple(_split(attrs)), table=head_tokens[0], fk=head_tokens[2]
        )
    return CubeHierarchy(tuple(_split(entry)))


def _parse_measure(name: str, entry: str) -> CubeMeasure:
    if "(" not in entry or not entry.endswith(")"):
        raise ConfigError(f"[cube:{name}] measure {entry!r} must look like fn(attr)")
    fn, arg = entry[:-1].split("(", 1)
    fn = fn.strip().lower()
    if fn not in MEASURE_FNS:
        raise ConfigError(f"[cube:{name}] unknown measure function {fn!r}")
    arg = arg.strip()
    return CubeMeasure(fn, attr=None if arg == "*" else arg)


def _parse_cube(name: str, section) -> CubeSpec:
    if "table" not in section:
        raise ConfigError(f"[cube:{name}] needs table =")
    hierarchies = tuple(
        _parse_hierarchy(name, h) for h in _split(section.get("hierarchies", ""), ";")
    )
    measures = tuple(
        _parse_measure(name, m) for m in _split(section.get("measures", ""))
    )
    if not hierarchies:
        raise ConfigError(f"[cube:{name}] needs at least one hierarchy")
    if not measures:
        raise ConfigError(f"[cube:{name}] needs at least one measure")
    return CubeSpec(name, section["table"], hierarchies, measures)


def _parse_pricing(section) -> PricingPolicy:
    preset = section.get("preset", "reference")
    if preset != "reference":
        raise ConfigError(f"[pricing] unknown preset {preset!r}")
    base = reference_pricing()
    rows = {}
    for row in ("storage", "svm", "mvm", "lvm"):
        if row in section:
            rows[row] = tuple(_split(section[row]))
    if not rows:
        return base
    return PricingPolicy(
        storage=rows.get("storage", base.storage),
        svm=rows.get("svm", base.svm),
        mvm=rows.get("mvm", base.mvm),
        lvm=rows.get("lvm", base.lvm),
    )


def load_config(path, env=None) -> AppConfig:
    """Parse one INI file into an AppConfig; env overrides come from
    ``env`` (defaults to ``os.environ``)."""
    env = os.environ if env is None else env
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # table and column names are case sensitive
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")

    if "scheme" not in parser:
        raise ConfigError("missing [scheme] section")
    scheme = parser["scheme"]
    for key in ("n", "t"):
        if key not in scheme:
            raise ConfigError(f"[scheme] needs {key} =")
    n = _int("scheme", "n", scheme["n"])
    t = _int("scheme", "t", scheme["t"])
    p = _int("scheme", "p", scheme.get("p", str(P_DEFAULT)))

    seed_hex = env.get("FVSS_SEED") or scheme.get("seed")
    if not seed_hex:
        raise ConfigError("[scheme] needs seed = (hex) or FVSS_SEED in the environment")
    try:
        seed = bytes.fromhex(seed_hex.strip())
    except ValueError:
        raise ConfigError(f"seed {seed_hex!r} is not valid hex")
    if not seed:
        raise ConfigError("seed must not be empty")

    if "store" not in parser or "root" not in parser["store"]:
        raise ConfigError("missing [store] root =")
    root = Path(parser["store"]["root"])

    weights = None
    if "placement" in parser and "weights" in parser["placement"]:
        try:
            weights = tuple(float(x) for x in _split(parser["placement"]["weights"]))
        except ValueError:
            raise ConfigError("[placement] weights must be numbers")
        if len(weights) != n:
            raise ConfigError(f"[placement] weights needs {n} entries, got {len(weights)}")
        if not all(0 <= x < float("inf") for x in weights):
            raise ConfigError("[placement] weights must be finite and not negative")

    w = 3
    if "sigtree" in parser and "w" in parser["sigtree"]:
        w = _int("sigtree", "w", parser["sigtree"]["w"])
        if w < 2:
            raise ConfigError(f"[sigtree] w must be at least 2, got {w}")

    bias = None
    if "encoding" in parser and "bias" in parser["encoding"]:
        bias = _int("encoding", "bias", parser["encoding"]["bias"])

    pricing = _parse_pricing(parser["pricing"]) if "pricing" in parser else reference_pricing()
    if pricing.n != n:
        raise ConfigError(f"pricing rows cover {pricing.n} CSPs but n = {n}")

    indexes = {}
    if "indexes" in parser:
        indexes = {tbl: tuple(_split(raw)) for tbl, raw in parser["indexes"].items()}
    derived = {}
    if "derived" in parser:
        derived = {tbl: _parse_derived(tbl, raw) for tbl, raw in parser["derived"].items()}

    tables = []
    seen = set()
    for section in parser.sections():
        if not section.startswith("table:"):
            continue
        name = section[len("table:"):]
        if "columns" not in parser[section]:
            raise ConfigError(f"[{section}] needs columns =")
        columns = tuple(
            _parse_column(name, entry) for entry in _split(parser[section]["columns"])
        )
        try:
            schema = Schema(name, columns)
        except Exception as exc:
            raise ConfigError(f"[{section}]: {exc}")
        tables.append((schema, indexes.pop(name, ()), derived.pop(name, ())))
        seen.add(name)
    if indexes:
        raise ConfigError(f"[indexes] names unknown tables: {sorted(indexes)}")
    if derived:
        raise ConfigError(f"[derived] names unknown tables: {sorted(derived)}")

    cubes = {}
    for section in parser.sections():
        if not section.startswith("cube:"):
            continue
        name = section[len("cube:"):]
        spec = _parse_cube(name, parser[section])
        if spec.table not in seen:
            raise ConfigError(f"[cube:{name}] table {spec.table!r} is not configured")
        cubes[name] = spec

    if not tables:
        raise ConfigError("no [table:...] sections")

    return AppConfig(
        n=n, t=t, p=p, seed=seed, root=root, w=w, weights=weights, bias=bias,
        pricing=pricing, tables=tuple(tables), cubes=cubes,
    )


def cube_table_specs(cfg: AppConfig, km: KeyMaterial):
    """Derive (schema, index_attrs, derived) triples for the configured
    cubes, so Warehouse.load can re-register cube tables found on disk.

    Cube schemas depend on the base table schemas, so a throwaway
    in-memory warehouse resolves them. Specs for cubes that were never
    built are ignored by load.
    """
    if not cfg.cubes:
        return []
    probe = cfg.new_warehouse(km)
    for schema, index_attrs, derived in cfg.tables:
        probe.create_table(schema, index_attrs=index_attrs, derived=derived)
    return [cube_table_spec(probe, spec) for spec in cfg.cubes.values()]
