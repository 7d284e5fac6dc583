"""Batch command line over a shared warehouse on disk.

Every invocation loads the store named by the config file, takes an
exclusive lock on it, runs one command, and saves any changes back.
Exit codes: 0 success, 1 usage or config errors, 2 integrity breaches,
3 availability failures.
"""

from __future__ import annotations

import argparse
import csv as _csv
import os
import re
import sys
import warnings
from datetime import date
from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from pathlib import Path

from . import cost
from .config import AppConfig, cube_table_specs, load_config
from .cube import cube_build, cube_query, cube_refresh
from .errors import (
    AvailabilityError,
    ConfigError,
    FvssError,
    IntegrityError,
    OuterSignatureBreach,
    SchemaMismatch,
    StoreLocked,
)
from .query import execute
from .sharing import Column, Schema, text_value
from .store import Warehouse


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code map
    instead of calling sys.exit itself."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="fvss", description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="path to the INI config file")
    parser.add_argument("--store", help="override the [store] root from the config")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init", help="create the key material and empty tables")

    p = sub.add_parser("share", help="share a CSV of records into a table")
    p.add_argument("table")
    p.add_argument("csv", help="CSV file with a header row of column names")

    p = sub.add_parser("query", help="run an aggregate query over shares")
    p.add_argument("sql")
    p.add_argument("--rg", help="reconstruction group, e.g. 1,2,3,4")
    p.add_argument("--output", choices=("table", "csv"), default="table")

    p = sub.add_parser("verify", help="check outer signature trees")
    p.add_argument("--csp", type=int, help="verify one CSP instead of all alive")
    p.add_argument("--table", help="restrict the check to one table")

    p = sub.add_parser("recover", help="rebuild a CSP's shares from its peers")
    p.add_argument("csp", type=int)

    p = sub.add_parser("fail", help="mark a CSP as failed")
    p.add_argument("csp", type=int)

    p = sub.add_parser("heal", help="mark a CSP as alive again")
    p.add_argument("csp", type=int)

    p = sub.add_parser("tamper", help="corrupt one stored share (for testing verify)")
    p.add_argument("csp", type=int)
    p.add_argument("table")
    p.add_argument("pk", type=int)
    p.add_argument("attr")
    p.add_argument("--chunk", type=int, default=0)
    p.add_argument("--delta", type=int, default=1)

    p = sub.add_parser("cube", help="build, refresh, or query a cube")
    cube_sub = p.add_subparsers(dest="cube_command", required=True)
    b = cube_sub.add_parser("build")
    b.add_argument("name")
    r = cube_sub.add_parser("refresh")
    r.add_argument("name")
    r.add_argument("--new", required=True, help="fact primary keys, e.g. 11,12")
    q = cube_sub.add_parser("query")
    q.add_argument("name")
    q.add_argument("--level", required=True, help="dimension attrs, e.g. yearid,category")
    q.add_argument("--where", default="", help="comma list of attr=value filters")
    q.add_argument("--rg")
    q.add_argument("--output", choices=("table", "csv"), default="table")

    p = sub.add_parser("cost-report", help="print the storage and compute cost sheets")
    p.add_argument("--output", choices=("table", "csv"), default="table")

    return parser


# value round trips: CSV text -> python, python -> printed cell

def _parse_cell(text: str, col: Column, table: str):
    """A CSV cell as a value of col (text_value), None when empty; an int
    cell must be whole."""
    if text == "":
        return None
    try:
        value = text_value(text, col.kind)
        if col.kind in ("key", "fk", "int") and isinstance(value, Fraction):
            raise ValueError(f"{text!r} is not whole")
    except ValueError:
        raise SchemaMismatch(f"{table}.{col.name}: cannot read {text!r} as {col.kind}") from None
    return value


def _fmt(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        digits = 0
        while den % 10 == 0:
            den //= 10
            digits += 1
        while den % 2 == 0:
            den //= 2
            digits += 1
        while den % 5 == 0:
            den //= 5
            digits += 1
        if den == 1:  # terminating decimal, print it exactly
            quant = Decimal(1).scaleb(-digits) if digits else Decimal(1)
            return str((Decimal(num) / Decimal(value.denominator)).quantize(quant))
        rounded = (Decimal(num) / Decimal(value.denominator)).quantize(
            Decimal("0.000001"), rounding=ROUND_HALF_EVEN
        )
        return f"{rounded}"
    if isinstance(value, date):
        return value.isoformat()
    return str(value)


def _emit(headers, rows, mode: str, out) -> None:
    cells = [[_fmt(v) for v in row] for row in rows]
    if mode == "csv":
        writer = _csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
        return
    widths = [len(h) for h in headers]
    for row in cells:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for row in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _parse_ids(raw: str, flag: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise ConfigError(f"{flag} must be a comma list of {what}, got {raw!r}") from None


def _parse_rg(raw: str | None):
    return None if raw is None else _parse_ids(raw, "--rg", "CSP ids")


_WHERE_OP = re.compile("<=|>=|!=|<|>|=")   # found leftmost, and there longest


def _parse_where(raw: str):
    """The (attr, op, value) filters of a --where text, comma-separated.
    A value that opens a quote holds the commas up to the one after its
    closing quote, so a quoted value may contain commas."""
    conds = []
    pieces = iter(raw.split(","))
    for part in pieces:
        part = part.strip()
        if not part:
            continue
        op = _WHERE_OP.search(part)
        if op is None:
            raise ConfigError(f"cannot parse filter {part!r}; expected attr=value")
        value = part[op.end():].strip()
        while value[:1] in ("'", '"') and (len(value) < 2 or value[-1] != value[0]):
            more = next(pieces, None)
            if more is None:
                break
            value = f"{value},{more}".strip()
        conds.append((part[:op.start()].strip(), op[0], _parse_literal(value)))
    return tuple(conds)


def _parse_literal(text: str) -> str:
    """A --where value, quotes stripped; literal_key reads it as its column's kind."""
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


# store plumbing

def _lock(root: Path):
    """Create root/.lock holding this process's pid. A lock left behind
    by a process that is no longer running is taken over; any other
    existing lock raises StoreLocked."""
    root.mkdir(parents=True, exist_ok=True)
    path = root / ".lock"
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        _remove_stale_lock(path)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise _held(path) from None
    os.write(fd, f"{os.getpid()}\n".encode())
    os.close(fd)
    return path


def _held(path: Path) -> StoreLocked:
    return StoreLocked(f"{path} exists; another invocation holds this store")


def _pid_running(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # signal 0 sends nothing; it only checks the pid
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        return True
    return True


def _remove_stale_lock(path: Path):
    """Remove a lock whose recorded pid names no running process. Text
    that is not a pid, or a running holder, raises StoreLocked."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        return  # released since the failed create
    try:
        pid = int(text)
    except ValueError:
        raise _held(path) from None
    if pid <= 0 or _pid_running(pid):
        raise _held(path)
    # Move it aside before deleting: if another invocation took the lock
    # over since the read, its live lock is what moved, and it goes back.
    aside = path.with_name(f".lock.{os.getpid()}")
    try:
        os.rename(path, aside)
    except FileNotFoundError:
        return
    if aside.read_text() != text:
        os.rename(aside, path)
        raise _held(path)
    aside.unlink()


def _open_warehouse(cfg: AppConfig) -> Warehouse:
    km = cfg.key_material()
    specs = list(cfg.tables) + cube_table_specs(cfg, km)
    return Warehouse.load(
        cfg.root, km, specs,
        w=cfg.w, weights=cfg.weights, bias=cfg.bias, svm_prices=cfg.pricing.svm,
    )


def _cube_spec(cfg: AppConfig, name: str):
    try:
        return cfg.cubes[name]
    except KeyError:
        raise ConfigError(f"no [cube:{name}] section in the config")


# commands; each returns an exit code

def cmd_init(cfg: AppConfig, args, out) -> int:
    km = cfg.key_material()  # may warn about weak privacy parameters
    if (cfg.root / "index" / "tables").exists():
        raise ConfigError(f"store already initialized at {cfg.root}")
    wh = cfg.new_warehouse(km)
    for schema, index_attrs, derived in cfg.tables:
        wh.create_table(schema, index_attrs=index_attrs, derived=derived)
    wh.save(cfg.root)
    out.write(f"initialized {len(cfg.tables)} tables across {cfg.n} CSPs at {cfg.root}\n")
    return 0


def _share_counts(wh: Warehouse) -> dict[int, int]:
    return {i: sum(len(csp.held_pks(table)) for table in wh.schemas) for i, csp in wh.csps.items()}


def cmd_share(cfg: AppConfig, args, out) -> int:
    wh = _open_warehouse(cfg)
    schema = wh.schemas.get(args.table)
    if schema is None:
        raise ConfigError(f"unknown table {args.table!r}")
    before = _share_counts(wh)
    rows = _read_csv(Path(args.csv), schema)
    count = wh.load_rows(args.table, rows)
    wh.save(cfg.root)
    after = _share_counts(wh)
    new = {i: after[i] - before[i] for i in sorted(after)}
    out.write(f"shared {count} rows into {args.table}\n")
    for i in sorted(new):
        out.write(f"CSP{i}: +{new[i]} (holds {after[i]})\n")
    out.write(f"new shared records across CSPs: {sum(new.values())}\n")
    return 0


def _read_csv(path: Path, schema: Schema):
    if not path.is_file():
        raise ConfigError(f"CSV file not found: {path}")
    with path.open(newline="") as fh:
        reader = _csv.DictReader(fh)
        if reader.fieldnames is None:
            return
        known = {c.name for c in schema.columns}
        stray = [name for name in reader.fieldnames if name not in known]
        if stray:
            raise SchemaMismatch(f"CSV columns not in {schema.table}: {stray}")
        for row in reader:
            if None in row:
                raise SchemaMismatch(f"CSV row has more cells than the header: {row[None]}")
            out = {}
            for col in schema.columns:
                text = row.get(col.name) or ""
                if text == "" and col.kind in ("key", "fk"):
                    raise SchemaMismatch(f"{schema.table}.{col.name} must not be empty")
                out[col.name] = _parse_cell(text, col, schema.table)
            yield out


def cmd_query(cfg: AppConfig, args, out) -> int:
    wh = _open_warehouse(cfg)
    headers, rows = execute(wh, args.sql, rg=_parse_rg(args.rg))
    _emit(headers, rows, args.output, out)
    return 0


def cmd_verify(cfg: AppConfig, args, out) -> int:
    wh = _open_warehouse(cfg)
    scope = args.table if args.table else "whole"
    targets = [args.csp] if args.csp is not None else wh.alive_csps()
    breaches = 0
    for i in targets:
        report = wh.verify_csp(i, scope)
        if report.ok:
            out.write(f"CSP{i}: OK ({report.inspected} nodes inspected)\n")
            continue
        breaches += len(report.entries)
        for entry in report.entries:
            trail = " > ".join(f"{lvl}.{idx}" for lvl, idx in entry.path)
            what = "signature nodes" if entry.position is None else f"record {entry.position}"
            out.write(
                f"CSP{i}: breach in {entry.table or 'the table layer'} {what}"
                f" (path {trail})\n"
            )
    if breaches:
        raise OuterSignatureBreach(f"{breaches} breached records")
    return 0


def cmd_recover(cfg: AppConfig, args, out) -> int:
    wh = _open_warehouse(cfg)
    regenerated = wh.recover_csp_shares(args.csp)
    wh.save(cfg.root)
    out.write(f"regenerated {regenerated} shares at CSP{args.csp}\n")
    return 0


def cmd_fail(cfg: AppConfig, args, out) -> int:
    wh = _open_warehouse(cfg)
    wh.inject_failure(args.csp)
    wh.save(cfg.root)
    out.write(f"CSP{args.csp} marked failed\n")
    return 0


def cmd_heal(cfg: AppConfig, args, out) -> int:
    wh = _open_warehouse(cfg)
    wh.heal(args.csp)
    wh.save(cfg.root)
    out.write(f"CSP{args.csp} marked alive\n")
    return 0


def cmd_tamper(cfg: AppConfig, args, out) -> int:
    wh = _open_warehouse(cfg)
    wh.inject_tamper(args.csp, args.table, args.pk, args.attr,
                     chunk=args.chunk, delta=args.delta)
    wh.save(cfg.root)
    out.write(
        f"tampered CSP{args.csp} {args.table}[{args.pk}].{args.attr}"
        f" chunk {args.chunk} by {args.delta}\n"
    )
    return 0


def cmd_cube(cfg: AppConfig, args, out) -> int:
    wh = _open_warehouse(cfg)
    spec = _cube_spec(cfg, args.name)
    if args.cube_command == "build":
        cells = cube_build(wh, spec)
        wh.save(cfg.root)
        out.write(f"built cube {args.name}: {cells} cells\n")
        return 0
    if args.cube_command == "refresh":
        touched = cube_refresh(wh, spec, _parse_ids(args.new, "--new", "fact primary keys"))
        wh.save(cfg.root)
        out.write(f"refreshed cube {args.name}: {touched} cells touched\n")
        return 0
    level = tuple(x.strip() for x in args.level.split(",") if x.strip())
    headers, rows = cube_query(
        wh, spec, level, where=_parse_where(args.where), rg=_parse_rg(args.rg)
    )
    _emit(headers, rows, args.output, out)
    return 0


def cmd_cost_report(cfg: AppConfig, args, out) -> int:
    pricing = cfg.pricing
    if pricing.n != 5:   # the sheets are the paper's, for five providers
        raise ConfigError(
            f"cost-report prints the five-provider sheet; [pricing] covers {pricing.n}")

    out.write("storage for 100 GB shared at (n=5, t=4), monthly\n")
    headers = ["scheme", "total_gb"] + [f"csp{i}_gb" for i in range(1, pricing.n + 1)] + ["usd"]
    rows = [
        [row.name, row.total_gb, *row.per_csp, row.cost]
        for row in cost.storage_comparison(pricing)
    ]
    _emit(headers, rows, args.output, out)

    for title, profiles in (
        ("sharing 10^15 records", cost.sharing_profiles()),
        ("accessing 10^14 records", cost.access_profiles()),
    ):
        out.write(f"\n{title}\n")
        headers = ["strategy", "wall", "usd"]
        for i in range(1, pricing.n + 1):
            headers += [f"csp{i}_vm", f"csp{i}_time"]
        rows = []
        for profile in profiles:
            report = cost.compute_cost(profile, pricing)
            row = [profile.name, report.wall_clock, report.total_dollars]
            for line in report.lines:
                row += [line.tier if line.tier else "---", line.clock]
            rows.append(row)
        _emit(headers, rows, args.output, out)

    out.write("\nshare volume per scheme (V=1)\n")
    curves = cost.volume_curves()
    headers = ["scheme", "threshold"] + [f"n={n}" for n, _ in next(iter(curves["t=n"].values()))]
    rows = []
    for threshold, by_scheme in curves.items():
        for scheme, points in by_scheme.items():
            rows.append([scheme, threshold, *(total for _, total in points)])
    _emit(headers, rows, args.output, out)
    return 0


_COMMANDS = {
    "init": cmd_init,
    "share": cmd_share,
    "query": cmd_query,
    "verify": cmd_verify,
    "recover": cmd_recover,
    "fail": cmd_fail,
    "heal": cmd_heal,
    "tamper": cmd_tamper,
    "cube": cmd_cube,
    "cost-report": cmd_cost_report,
}

_NO_STORE = ("cost-report",)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def run(argv, out) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = load_config(args.config)
    if args.store:
        cfg = cfg._replace(root=Path(args.store))
    handler = _COMMANDS[args.command]
    if args.command in _NO_STORE:
        return handler(cfg, args, out)
    lock = _lock(cfg.root)
    try:
        return handler(cfg, args, out)
    finally:
        lock.unlink(missing_ok=True)


def main(argv=None) -> int:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _show_warning
            return run(sys.argv[1:] if argv is None else argv, sys.stdout)
    except AvailabilityError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except IntegrityError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FvssError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
