"""The benchmark's three workloads.

Each is a closed loop with one client: the next operation starts when
the previous one has returned. Each starts from a store built the way an
owner builds one: write the INI, share the dimension and fact rows,
build the cube over any facts, save the store and reopen it as the CLI
does. All scheme parameters are the defaults (n=5, t=4, p=2^61-1, w=3).

ingest     the write path. Sessions start from empty fact tables: bulk
           share in CLI-sized batches, re-share existing keys in place at
           full table size, build the cube, then append batches with a
           cube_refresh after each.
analytics  the read path. A fixed query suite runs over a preloaded
           warehouse and its cube. One interpolation per SUM, so it is the
           control for interpolation work; the cube slice reads no fact
           rows, so it is the control for fact scans.
audit      integrity and repair: verify a clean store, localize a seeded
           tamper, fail and recover each provider in turn, save, and run
           a cold `fvss query` process against the saved store.

Every answer is checked: queries against a plaintext evaluation of the
generated rows, tampers against their exact position, recovered slices
share for share against the slice before the failure, CLI output byte
for byte against the in-process answer.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from fvss import cli, config, cube, query, store
from tests.oracles import PlainWarehouse

from .datagen import YEARS, Generator
from .recorder import median

SIZES = {
    "ingest": {"products": 40, "bulk_rows": 4000, "batch_rows": 500,
               "updates": 300, "appends": 4, "append_rows": 100},
    "analytics": {"products": 40, "rows": 5000, "pk_group": 200, "pk_offsets": 8},
    "audit": {"products": 40, "rows": 2000},
}

CUBE = "by_month"

INI = """\
[scheme]
n = 5
t = 4
seed = {seed}

[store]
root = {root}

[table:Product]
columns = ProdNo key, pname string, category string

[table:Sales]
columns = SaleNo key, ProdNo fk table=Product, yearid int, monthid int,
          price real scale=2, qty int

[indexes]
Product = category
Sales = yearid, monthid, price, qty

[derived]
Sales = price_sq square price scale=4

[cube:{cube}]
table = Sales
hierarchies = yearid, monthid
measures = sum(price), count(*), avg(price)
"""

ORACLE_DERIVED = [("price_sq", "square", "price", None, 4)]

# end-of-run check: a Type II range filter, an fk-free group key, COUNT
# and MAX through the index, so every read layer answers once
GATE_SQL = ("SELECT yearid, SUM(price), COUNT(qty), MAX(qty) FROM Sales "
            "WHERE monthid <= 6 GROUP BY yearid")
CUBE_BY_YEAR_SQL = "SELECT yearid, SUM(price), COUNT(*), AVG(price) FROM Sales GROUP BY yearid"

ANALYTICS_SQL = {
    "q_scalar": "SELECT SUM(price), COUNT(*), AVG(qty) FROM Sales",
    "q_group_attr": "SELECT monthid, SUM(price), COUNT(qty) FROM Sales GROUP BY monthid",
    "q_join_group": ("SELECT P.category, SUM(S.price) FROM Sales AS S "
                     "JOIN Product AS P ON S.ProdNo = P.ProdNo GROUP BY P.category"),
    "q_stats": "SELECT VAR(price), MAX(price), MEDIAN(qty) FROM Sales WHERE yearid = {y}",
    "q_group_pk": ("SELECT SaleNo, AVG(price), MAX(qty) FROM Sales "
                   "WHERE SaleNo BETWEEN {a} AND {b} GROUP BY SaleNo"),
}
# plaintext equivalents of the two cube slices q_cube reads
CUBE_YEAR_SQL = ("SELECT yearid, SUM(price), COUNT(*), AVG(price) FROM Sales "
                 "WHERE yearid >= {y} GROUP BY yearid")
CUBE_MONTH_SQL = ("SELECT yearid, monthid, SUM(price), COUNT(*), AVG(price) FROM Sales "
                  "WHERE yearid = {y} GROUP BY yearid, monthid")

CLI_SQL = "SELECT yearid, SUM(price), COUNT(*), MAX(qty) FROM Sales GROUP BY yearid"


@dataclass
class Site:
    """A store on disk with its INI, and the warehouse opened from it."""
    path: Path
    ini: Path
    cfg: config.AppConfig
    wh: store.Warehouse
    cube_built: bool


def _ms(seconds: float) -> float:
    return seconds * 1000


def _s(seconds: float) -> float:
    return seconds


def _slice(csp) -> dict:
    """One provider's holdings, comparable share for share."""
    return {
        table: [(r.pk, dict(r.plain), dict(r.shares)) for r in records]
        for table, records in csp.tables.items()
    }


class Workload:
    """Set-up, measured window and correctness gate of one workload."""

    name = ""
    # operation mix of one pass: kind -> operations per pass
    mix: dict[str, int] = {}
    # operations the traced run makes differently, left out of its overhead
    in_process_when_traced: tuple[str, ...] = ()
    # set-ups per untraced run; setup_s is their median
    setup_repeats = 5

    def __init__(self, gen: Generator, scratch: Path, src: Path, sizes=None):
        self.gen = gen
        self.scratch = scratch
        self.src = src
        self.sizes = dict(SIZES[self.name] if sizes is None else sizes)
        self.products = gen.products(self.sizes["products"])
        self.site: Site | None = None
        self.disk_bytes_per_row = 0.0
        self._sites = 0
        self._gate_ast = query.parse(GATE_SQL)
        self._cube_by_year_ast = query.parse(CUBE_BY_YEAR_SQL)

    # set-up

    def _open_site(self, sales) -> Site:
        self._sites += 1
        path = self.scratch / f"site{self._sites}"
        path.mkdir()
        ini = path / "fvss.ini"
        ini.write_text(INI.format(seed=self.gen.scheme_seed().hex(),
                                  root=path / "store", cube=CUBE))
        cfg = config.load_config(ini, env={})
        km = cfg.key_material()
        wh = cfg.new_warehouse(km)
        for schema, index_attrs, derived in cfg.tables:
            wh.create_table(schema, index_attrs=index_attrs, derived=derived)
        wh.load_rows("Product", self.products)
        wh.load_rows("Sales", sales)
        if sales:
            cube.cube_build(wh, cfg.cubes[CUBE])
        wh.save(cfg.root)
        specs = list(cfg.tables) + config.cube_table_specs(cfg, km)
        wh = store.Warehouse.load(cfg.root, km, specs, w=cfg.w, weights=cfg.weights,
                                  bias=cfg.bias, svm_prices=cfg.pricing.svm)
        return Site(path, ini, cfg, wh, cube_built=bool(sales))

    def _replace_site(self, site: Site):
        if self.site is not None:
            shutil.rmtree(self.site.path)
        self.site = site

    def start_rows(self) -> list[dict]:
        return []

    def setup(self, rec):
        """Reach the start state once; the timings feed setup_s."""
        self._replace_site(rec.timed("setup", self._open_site, self.start_rows()))
        rec.wh = self.site.wh

    def prepare(self):
        """Plaintext answers needed by the window; runs before any tracing."""

    # correctness

    def _oracle(self, sales) -> PlainWarehouse:
        oracle = PlainWarehouse()
        schemas = {schema.table: schema for schema, _, _ in self.site.cfg.tables}
        oracle.add_table(schemas["Product"], self.products)
        oracle.add_table(schemas["Sales"], sales, derived=ORACLE_DERIVED)
        return oracle

    def check_state(self, rec, site: Site, sales, updated=()):
        """The store answers a filtered group query and its cube slice as the
        plaintext does, updated records reconstruct exactly, and every
        provider verifies clean."""
        wh = site.wh
        oracle = self._oracle(sales)
        got = rec.untimed("check.query", query.execute, wh, GATE_SQL)[1]
        rec.check(got == oracle.query(self._gate_ast), f"{self.name}: {GATE_SQL}")
        if site.cube_built:
            got = rec.untimed("check.cube", cube.cube_query, wh,
                              site.cfg.cubes[CUBE], ("yearid",))[1]
            rec.check(got == oracle.query(self._cube_by_year_ast),
                      f"{self.name}: cube slice by yearid")
        by_pk = {row["SaleNo"]: row for row in sales}
        for pk in sorted(updated)[:10]:
            got = rec.untimed("check.record", wh.reconstruct_record, "Sales", pk)
            want = dict(by_pk[pk], price_sq=by_pk[pk]["price"] ** 2)
            rec.check(got == want, f"{self.name}: Sales record {pk} after update")
        reports = rec.untimed("check.verify", wh.verify_all)
        rec.check(len(reports) == wh.km.n and all(r.ok for r in reports.values()),
                  f"{self.name}: verify_all on the final store")

    def _save_for_size(self, rec, site: Site, n_rows: int):
        path = self.scratch / "gate_store"
        rec.untimed("check.save", site.wh.save, path)
        size = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
        self.disk_bytes_per_row = size / n_rows
        shutil.rmtree(path)

    def gate(self, rec):
        rows = self.start_rows()
        self.check_state(rec, self.site, rows)
        self._save_for_size(rec, self.site, len(rows))

    # results

    def pass_seconds(self, samples, exclude=()) -> float:
        """One pass of the operation mix, each operation at its median."""
        return sum(count * median(samples[kind])
                   for kind, count in self.mix.items() if kind not in exclude)

    def named_metrics(self):
        """(metric, unit, operation kind, seconds -> reported value,
        percentile) for each per-operation metric the report prints."""
        raise NotImplementedError


class Ingest(Workload):
    name = "ingest"
    setup_repeats = 9   # an empty store sets up in tens of milliseconds

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        s = self.sizes
        self.mix = {
            "share_batch": s["bulk_rows"] // s["batch_rows"],
            "update": s["updates"],
            "cube_build": 1,
            "append_batch": s["appends"],
            "cube_refresh": s["appends"],
        }
        self._final = None

    def window(self, rec, seconds: float):
        deadline = perf_counter() + seconds
        session = 0
        while session == 0 or perf_counter() < deadline:
            if session:
                self._replace_site(rec.untimed("session_setup", self._open_site, []))
                rec.wh = self.site.wh
            self._session(rec, session, None if session == 0 else deadline)
            session += 1

    def _session(self, rec, k: int, deadline):
        """One session from empty fact tables; the first ignores the deadline
        so every run completes at least one."""
        s, site = self.sizes, self.site
        wh, spec = site.wh, site.cfg.cubes[CUBE]
        rows: dict[int, dict] = {}
        updated: set[int] = set()

        def due():
            return deadline is not None and perf_counter() >= deadline

        def run():
            bulk = self.gen.sales(f"bulk{k}", 1, s["bulk_rows"], s["products"])
            for i in range(0, len(bulk), s["batch_rows"]):
                if due():
                    return
                batch = bulk[i:i + s["batch_rows"]]
                rec.timed("share_batch", wh.load_rows, "Sales", batch)
                rows.update((r["SaleNo"], r) for r in batch)
            for row in self.gen.updates(f"update{k}", bulk, s["updates"]):
                if due():
                    return
                rec.timed("update", wh.insert, "Sales", row)
                rows[row["SaleNo"]] = row
                updated.add(row["SaleNo"])
            if due():
                return
            rec.timed("cube_build", cube.cube_build, wh, spec)
            site.cube_built = True
            next_pk = s["bulk_rows"] + 1
            for j in range(s["appends"]):
                if due():
                    return
                batch = self.gen.sales(f"append{k}.{j}", next_pk, s["append_rows"],
                                       s["products"])
                next_pk += len(batch)
                rec.timed("append_batch", wh.load_rows, "Sales", batch)
                rows.update((r["SaleNo"], r) for r in batch)
                touched = rec.timed("cube_refresh", cube.cube_refresh, wh, spec,
                                    [r["SaleNo"] for r in batch])
                cells = (1 + len({r["yearid"] for r in batch})
                         + len({(r["yearid"], r["monthid"]) for r in batch}))
                rec.check(touched == cells, "ingest: cells touched by cube_refresh")

        run()
        if rows:
            sales = list(rows.values())
            self.check_state(rec, site, sales, updated)
            self._final = (site, sales)

    def gate(self, rec):
        site, sales = self._final
        self._save_for_size(rec, site, len(sales))

    def named_metrics(self):
        rows = self.sizes["batch_rows"]
        return [
            ("share_rows_per_s", "1/s", "share_batch", lambda t: rows / t, 50),
            ("update_ms_p50", "ms", "update", _ms, 50),
            ("update_ms_p95", "ms", "update", _ms, 95),
            ("cube_refresh_ms", "ms", "cube_refresh", _ms, 50),
            ("cube_build_ms", "ms", "cube_build", _ms, 50),
            ("append_batch_ms", "ms", "append_batch", _ms, 50),
        ]


class Analytics(Workload):
    name = "analytics"
    mix = {kind: 1 for kind in (*ANALYTICS_SQL, "q_cube")}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        s = self.sizes
        self.sales = self.gen.sales("preload", 1, s["rows"], s["products"])
        r = self.gen.rng("pk_offsets")
        self.offsets = sorted(r.sample(range(1, s["rows"] - s["pk_group"] + 2),
                                       s["pk_offsets"]))
        self._expected = {}

    def start_rows(self):
        return self.sales

    def prepare(self):
        """Plaintext answers for every parameter the window can draw; runs
        before any tracing, since it parses query text."""
        oracle = self._oracle(self.sales)
        for y in YEARS:
            for kind, sql in (("q_stats", ANALYTICS_SQL["q_stats"]),
                              ("cube_year", CUBE_YEAR_SQL), ("cube_month", CUBE_MONTH_SQL)):
                self._expected[(kind, y)] = oracle.query(query.parse(sql.format(y=y)))
        for a in self.offsets:
            sql = ANALYTICS_SQL["q_group_pk"].format(a=a, b=a + self.sizes["pk_group"] - 1)
            self._expected[("q_group_pk", a)] = oracle.query(query.parse(sql))
        for kind in ("q_scalar", "q_group_attr", "q_join_group"):
            self._expected[(kind, None)] = oracle.query(query.parse(ANALYTICS_SQL[kind]))

    def _cube_slices(self, wh, spec, y):
        return (cube.cube_query(wh, spec, ("yearid",), where=(("yearid", ">=", y),))[1],
                cube.cube_query(wh, spec, ("yearid", "monthid"), where=(("yearid", "=", y),))[1])

    def window(self, rec, seconds: float):
        wh, spec = self.site.wh, self.site.cfg.cubes[CUBE]
        r = self.gen.rng("passes")
        deadline = perf_counter() + seconds
        passes = 0
        while passes == 0 or perf_counter() < deadline:
            y, a = r.choice(YEARS), r.choice(self.offsets)
            b = a + self.sizes["pk_group"] - 1
            for kind, sql in ANALYTICS_SQL.items():
                param = {"q_stats": y, "q_group_pk": a}.get(kind)
                got = rec.timed(kind, query.execute, wh, sql.format(y=y, a=a, b=b))[1]
                rec.check(got == self._expected[(kind, param)], f"analytics: {kind} {param}")
            got = rec.timed("q_cube", self._cube_slices, wh, spec, y)
            rec.check(got == (self._expected[("cube_year", y)], self._expected[("cube_month", y)]),
                      f"analytics: q_cube {y}")
            passes += 1

    def named_metrics(self):
        return [(f"{kind}_ms", "ms", kind, _ms, 50) for kind in self.mix]


class Audit(Workload):
    name = "audit"
    mix = {"verify": 1, "localize": 1, "recover": 1, "save": 1, "cli_query": 1}
    # the traced run calls the CLI in-process, so its timing is not comparable
    in_process_when_traced = ("cli_query",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        s = self.sizes
        self.sales = self.gen.sales("preload", 1, s["rows"], s["products"])
        self._cli_expected_rows = None
        self._cycles = 0

    def start_rows(self):
        return self.sales

    def prepare(self):
        self._cli_expected_rows = self._oracle(self.sales).query(query.parse(CLI_SQL))

    def _cli_query(self, store_dir: Path, in_process: bool) -> bytes:
        argv = ["--config", str(self.site.ini), "--store", str(store_dir), "query", CLI_SQL]
        if in_process:
            out = io.StringIO()
            code = cli.run(argv, out)
            if code != 0:
                raise RuntimeError(f"fvss query exited {code}")
            return out.getvalue().encode()
        env = dict(os.environ)
        env.pop("FVSS_SEED", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-m", "fvss.cli", *argv], cwd=self.scratch,
                              env=env, capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"fvss query exited {proc.returncode}: {proc.stderr.decode()}")
        return proc.stdout

    def window(self, rec, seconds: float):
        wh = self.site.wh
        n = wh.km.n
        r = self.gen.rng("cycles")
        in_process = rec.tracer is not None   # the traced run keeps the CLI in-process
        headers, rows = rec.untimed("check.query", query.execute, wh, CLI_SQL)
        rec.check(rows == self._cli_expected_rows, f"audit: {CLI_SQL}")
        text = io.StringIO()
        cli._emit(headers, rows, "table", text)
        expected = text.getvalue().encode()

        deadline = perf_counter() + seconds
        cycles = 0
        saved = None
        while cycles == 0 or perf_counter() < deadline:
            i = cycles % n + 1
            csp = wh.csps[i]
            reports = rec.timed("verify", wh.verify_all)
            rec.check(len(reports) == n and all(rep.ok for rep in reports.values()),
                      "audit: verify_all on the clean store")

            before = _slice(csp)
            pos = r.randrange(len(csp.tables["Sales"]))
            pk = csp.tables["Sales"][pos].pk
            rec.untimed("tamper", wh.inject_tamper, i, "Sales", pk, "price", 0,
                        r.randrange(1, wh.km.p))
            report = rec.timed("localize", wh.verify_csp, i)
            rec.check([(e.table, e.position) for e in report.entries] == [("Sales", pos)],
                      f"audit: tamper at CSP{i} Sales[{pos}] localized")

            rec.untimed("fail", wh.inject_failure, i)
            rec.timed("recover", wh.recover_csp_shares, i)
            rec.untimed("heal", wh.heal, i)
            rec.check(_slice(csp) == before, f"audit: CSP{i} slice recovered share for share")
            rec.check(rec.untimed("check.verify", wh.verify_csp, i).ok,
                      f"audit: CSP{i} verifies after recovery")

            if saved is not None:
                shutil.rmtree(saved)
            self._cycles += 1
            saved = self.scratch / f"saved{self._cycles}"
            rec.timed("save", wh.save, saved)
            out = rec.timed("cli_query", self._cli_query, saved, in_process)
            rec.check(out == expected, "audit: CLI output equals the in-process answer")
            cycles += 1
        if saved is not None:
            shutil.rmtree(saved)

    def named_metrics(self):
        return [
            ("verify_s", "s", "verify", _s, 50),
            ("localize_ms", "ms", "localize", _ms, 50),
            ("recover_s", "s", "recover", _s, 50),
            ("save_s", "s", "save", _s, 50),
            ("cli_query_s", "s", "cli_query", _s, 50),
        ]


WORKLOADS = {cls.name: cls for cls in (Ingest, Analytics, Audit)}
