import datetime
import hashlib
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from fvss import cli
from fvss.config import load_config
from fvss.errors import ConfigError
from fvss.sharing import Column

SEED_HEX = bytes(range(32)).hex()

CONFIG = """\
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
          price real scale=2, qty int, paid bool, day date

[indexes]
Product = category
Sales = yearid, monthid, price, qty

[derived]
Sales = price_sq square price scale=4

[cube:by_year]
table = Sales
hierarchies = yearid ; Product via ProdNo: category
measures = sum(price), count(*), avg(price)
"""

PRODUCTS_CSV = """\
ProdNo,pname,category
10,Shirt,apparel
11,Jacket,apparel
12,Mug,kitchen
"""

SALES_CSV = """\
SaleNo,ProdNo,yearid,monthid,price,qty,paid,day
1,10,2013,1,19.99,2,true,2013-01-05
2,11,2013,2,99.50,1,false,2013-02-11
3,12,2014,1,5.25,,true,2014-01-30
"""


@pytest.fixture
def site(tmp_path):
    cfg = tmp_path / "fvss.ini"
    cfg.write_text(CONFIG.format(seed=SEED_HEX, root=tmp_path / "warehouse"))
    (tmp_path / "products.csv").write_text(PRODUCTS_CSV)
    (tmp_path / "sales.csv").write_text(SALES_CSV)
    return tmp_path


def run(site, *argv, capsys=None):
    code = cli.main(["--config", str(site / "fvss.ini"), *argv])
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


@pytest.fixture
def loaded(site, capsys):
    assert run(site, "init")[0] == 0
    assert run(site, "share", "Product", str(site / "products.csv"))[0] == 0
    assert run(site, "share", "Sales", str(site / "sales.csv"))[0] == 0
    capsys.readouterr()
    return site


# init and share

def test_init_creates_store_and_reports(site, capsys):
    code, out, err = run(site, "init", capsys=capsys)
    assert code == 0
    assert "2 tables" in out
    assert (site / "warehouse" / "index" / "tables").is_file()
    assert "warning" not in err  # (5, 4) keeps groups below the threshold


def test_init_twice_fails(site, capsys):
    assert run(site, "init")[0] == 0
    code, _, err = run(site, "init", capsys=capsys)
    assert code == 1
    assert "already initialized" in err


def test_share_three_rows_makes_nine_shared_records(site, capsys):
    run(site, "init")
    code, out, _ = run(site, "share", "Product", str(site / "products.csv"), capsys=capsys)
    assert code == 0
    assert "shared 3 rows" in out
    assert "new shared records across CSPs: 9" in out


def test_share_empty_csv_is_a_zero_write_success(site, capsys):
    run(site, "init")
    (site / "empty.csv").write_text("ProdNo,pname,category\n")
    code, out, _ = run(site, "share", "Product", str(site / "empty.csv"), capsys=capsys)
    assert code == 0
    assert "shared 0 rows" in out
    assert "new shared records across CSPs: 0" in out


def test_share_appended_row_adds_three_shared_records(loaded, capsys):
    (loaded / "more.csv").write_text(
        "SaleNo,ProdNo,yearid,monthid,price,qty,paid,day\n"
        "4,10,2014,3,45.00,3,true,2014-03-02\n"
    )
    code, out, _ = run(loaded, "share", "Sales", str(loaded / "more.csv"), capsys=capsys)
    assert code == 0
    assert "shared 1 rows" in out
    assert "new shared records across CSPs: 3" in out


def test_share_unknown_table_fails(loaded, capsys):
    code, _, err = run(loaded, "share", "Nope", str(loaded / "sales.csv"), capsys=capsys)
    assert code == 1
    assert "unknown table" in err


def test_share_stray_csv_column_fails(loaded, capsys):
    (loaded / "bad.csv").write_text("ProdNo,pname,color\n14,Sock,red\n")
    code, _, err = run(loaded, "share", "Product", str(loaded / "bad.csv"), capsys=capsys)
    assert code == 1
    assert "color" in err


# query

def test_query_sum_over_shares(loaded, capsys):
    code, out, _ = run(
        loaded, "query", "SELECT SUM(price) FROM Sales WHERE yearid = 2013",
        capsys=capsys,
    )
    assert code == 0
    assert "119.49" in out


def test_query_group_by_with_explicit_rg(loaded, capsys):
    code, out, _ = run(
        loaded, "query", "SELECT yearid, COUNT(*) FROM Sales GROUP BY yearid",
        "--rg", "2,3,4,5", capsys=capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split() == ["2013", "2"]
    assert lines[2].split() == ["2014", "1"]


def test_query_output_is_byte_identical_across_runs(loaded, capsys):
    args = ("query", "SELECT yearid, AVG(price) FROM Sales GROUP BY yearid",
            "--output", "csv")
    first = run(loaded, *args, capsys=capsys)
    second = run(loaded, *args, capsys=capsys)
    assert first == second
    assert first[1] == "yearid,AVG(price)\n2013,59.745\n2014,5.25\n"


def test_query_syntax_error_exits_one(loaded, capsys):
    code, _, err = run(loaded, "query", "SELEC SUM(price) FROM Sales", capsys=capsys)
    assert code == 1
    assert "QuerySyntaxError" in err


def test_query_over_a_share_that_is_not_a_decimal_integer_exits_one(loaded, capsys):
    shares = next(path for path in sorted((loaded / "warehouse").glob("csp*/Sales.shares"))
                  if path.read_text())
    fields = shares.read_text().split("\t")
    fields[2] = "x" + fields[2]   # the first record's yearid share
    shares.write_text("\t".join(fields))
    code, out, err = run(loaded, "query", "SELECT COUNT(*) FROM Sales", capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "SchemaMismatch: Sales.shares: a field that is not a decimal integer\n"


@pytest.mark.parametrize("state,error", [
    ("alive\tyes\nbytes_transferred\t0\n", "alive is not 0 or 1"),
    ("\nbytes_transferred\t0\n", "alive is not 0 or 1"),
    ("alive\t1\nbytes_transferred\t1.5\n", "bytes_transferred is not a decimal integer"),
], ids=["alive yes", "no alive", "counter not an integer"])
def test_query_over_a_malformed_state_file_exits_one(loaded, capsys, state, error):
    (loaded / "warehouse" / "csp2" / "state").write_text(state)
    code, out, err = run(loaded, "query", "SELECT COUNT(*) FROM Sales", capsys=capsys)
    assert (code, out) == (1, "")
    assert err == f"SchemaMismatch: csp2/state: {error}\n"


# verify, tamper, recover

def test_verify_clean_store_says_ok(loaded, capsys):
    code, out, _ = run(loaded, "verify", capsys=capsys)
    assert code == 0
    assert out.count("OK") == 5


def test_tamper_verify_recover_cycle(loaded, capsys):
    assert run(loaded, "tamper", "2", "Sales", "1", "price")[0] == 0
    code, out, err = run(loaded, "verify", capsys=capsys)
    assert code == 2
    assert "CSP2: breach in Sales" in out
    assert "OuterSignatureBreach" in err

    code, out, _ = run(loaded, "recover", "2", capsys=capsys)
    assert code == 0
    assert "regenerated" in out
    assert run(loaded, "verify")[0] == 0


def _holder(site, table, pk) -> str:
    """A provider that stores the record, read from its Type I bitmap, so
    that a test does not depend on where placement put it."""
    for line in (site / "warehouse" / "index" / "type1.bitmap").read_text().splitlines():
        name, key, bitmap = line.split("\t")
        if (name, key) == (table, str(pk)):
            return str(bitmap.index("1") + 1)
    raise AssertionError(f"no bitmap for {table} pk {pk}")


def test_verify_single_csp_and_table_scope(loaded, capsys):
    csp = _holder(loaded, "Product", 10)
    run(loaded, "tamper", csp, "Product", "10", "pname")
    code, out, _ = run(loaded, "verify", "--csp", csp, "--table", "Sales", capsys=capsys)
    assert code == 0  # the tamper sits in Product, out of scope
    code, out, _ = run(loaded, "verify", "--csp", csp, "--table", "Product", capsys=capsys)
    assert code == 2
    assert "Product" in out


# failures and availability

def test_one_failure_keeps_queries_alive(loaded, capsys):
    assert run(loaded, "fail", "5")[0] == 0
    code, out, _ = run(loaded, "query", "SELECT SUM(qty) FROM Sales", capsys=capsys)
    assert code == 0
    assert "3" in out


def test_two_failures_break_reads_until_heal(loaded, capsys):
    run(loaded, "fail", "5")
    run(loaded, "fail", "4")
    code, _, err = run(loaded, "query", "SELECT SUM(qty) FROM Sales", capsys=capsys)
    assert code == 3
    assert "NotEnoughAliveCsps" in err
    assert run(loaded, "heal", "4")[0] == 0
    assert run(loaded, "heal", "5")[0] == 0
    assert run(loaded, "query", "SELECT SUM(qty) FROM Sales")[0] == 0


@pytest.mark.parametrize("edit", ["missing", "extra"])
def test_type2_files_not_matching_the_config_exit_one(loaded, capsys, edit):
    """A query on a store whose Type II files are not the configured ones
    refuses to answer (without the qty index, COUNT and SUM read 0)."""
    t2 = loaded / "warehouse" / "index" / "type2"
    if edit == "missing":
        (t2 / "Sales.qty.idx").unlink()
        want = "SchemaMismatch: index/type2/Sales.qty.idx is missing"
    else:
        (t2 / "Sales.paid.idx").write_text("[1, 1]\n")
        want = "SchemaMismatch: index/type2/Sales.paid.idx is on disk but"
    code, out, err = run(loaded, "query", "SELECT COUNT(*), SUM(price) FROM Sales WHERE qty >= 1",
                         capsys=capsys)
    assert (code, out) == (1, "")
    assert want in err


def test_type2_entry_for_a_pk_type1_lacks_exits_one(loaded, capsys):
    """A Type II entry naming a record Type I does not hold is refused
    before any query is answered from that index."""
    with (loaded / "warehouse" / "index" / "type2" / "Sales.yearid.idx").open("a") as f:
        f.write("[2013, 999999]\n")
    code, out, err = run(loaded, "query", "SELECT COUNT(*) FROM Sales WHERE yearid = 2013",
                         capsys=capsys)
    assert (code, out) == (1, "")
    assert err == ("SchemaMismatch: index/type2/Sales.yearid.idx names Sales pk 999999, "
                   "which Type I lacks\n")


def _store_files(site) -> dict:
    root = site / "warehouse"
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("argv", [
    ("fail", "9"), ("heal", "0"), ("tamper", "9", "Sales", "1", "price"),
    ("verify", "--csp", "9"), ("recover", "9"),
], ids=["fail", "heal", "tamper", "verify", "recover"])
def test_an_unknown_csp_exits_one_and_changes_nothing(loaded, capsys, argv):
    before = _store_files(loaded)
    code, out, err = run(loaded, *argv, capsys=capsys)
    csp = next(arg for arg in argv if arg.isdigit())
    assert (code, out, err) == (1, "", f"UnknownParticipant: no CSP {csp}\n")
    assert _store_files(loaded) == before   # no .lock left behind either
    assert run(loaded, "verify")[0] == 0


@pytest.mark.parametrize("argv,err", [
    (("Sales", "1", "price", "--chunk", "5"),
     r"OutOfRange: Sales\[\d+\]\.price has no chunk 5: its share has 1"),
    (("Sales", "1", "price", "--chunk", "-1"),
     r"OutOfRange: Sales\[\d+\]\.price has no chunk -1: its share has 1"),
    (("Product", "10", "pname", "--chunk", "7"),
     r"OutOfRange: Product\[\d+\]\.pname has no chunk 7: its share has 5"),
    (("Sales", "1", "nope"), "SchemaMismatch: no column nope in Sales"),
    (("Sales", "1", "ProdNo"), r"SchemaMismatch: Sales\.ProdNo is not a shared data column"),
], ids=["int chunk 5", "chunk -1", "string past its end", "unknown attribute", "fk"])
def test_tamper_of_what_no_share_holds_exits_one_and_changes_nothing(loaded, capsys, argv,
                                                                      err):
    """Each tamper names a provider that stores the record (_holder)."""
    before = _store_files(loaded)
    code, out, got = run(loaded, "tamper", _holder(loaded, *argv[:2]), *argv, capsys=capsys)
    assert (code, out) == (1, "")
    assert re.fullmatch(err + "\n", got)
    assert _store_files(loaded) == before   # no .lock left behind either
    assert run(loaded, "verify")[0] == 0


def test_query_over_a_type1_file_that_files_a_record_twice_exits_one(loaded, capsys):
    path = loaded / "warehouse" / "index" / "type1.bitmap"
    text = path.read_text()
    table, pk, _ = text.splitlines()[0].split("\t")
    path.write_text(text + f"{table}\t{pk}\t11111\n")
    code, out, err = run(loaded, "query", "SELECT COUNT(*) FROM Sales", capsys=capsys)
    assert (code, out) == (1, "")
    assert err == f"SchemaMismatch: index/type1.bitmap: a {table} pk on two lines\n"


def test_query_over_a_type1_line_of_an_unlisted_table_exits_one(loaded, capsys):
    path = loaded / "warehouse" / "index" / "type1.bitmap"
    path.write_text(path.read_text() + "nosuch\t1\t11100\n")
    code, out, err = run(loaded, "query", "SELECT COUNT(*) FROM Sales", capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "SchemaMismatch: index/type1.bitmap: table 'nosuch' is not in index/tables\n"


def test_verify_failed_csp_is_an_availability_error(loaded, capsys):
    run(loaded, "fail", "2")
    code, _, err = run(loaded, "verify", "--csp", "2", capsys=capsys)
    assert code == 3
    assert "CspUnavailable" in err


# cube commands

def test_cube_build_query_refresh(loaded, capsys):
    code, out, _ = run(loaded, "cube", "build", "by_year", capsys=capsys)
    assert code == 0
    assert "7 cells" in out

    code, out, _ = run(loaded, "cube", "query", "by_year", "--level", "yearid",
                       "--output", "csv", capsys=capsys)
    assert code == 0
    assert out == (
        "yearid,sum_price,count_rows,avg_price\n"
        "2013,119.49,2,59.745\n"
        "2014,5.25,1,5.25\n"
    )

    (loaded / "more.csv").write_text(
        "SaleNo,ProdNo,yearid,monthid,price,qty,paid,day\n"
        "4,10,2014,3,45.00,3,true,2014-03-02\n"
    )
    run(loaded, "share", "Sales", str(loaded / "more.csv"))
    code, out, _ = run(loaded, "cube", "refresh", "by_year", "--new", "4", capsys=capsys)
    assert code == 0
    assert "cells touched" in out

    code, out, _ = run(loaded, "cube", "query", "by_year", "--level", "yearid",
                       "--where", "yearid=2014", "--output", "csv", capsys=capsys)
    assert code == 0
    assert out.splitlines()[1] == "2014,50.25,2,25.125"


def test_cube_query_rotates_past_a_tampered_cell_share(loaded, capsys):
    assert run(loaded, "cube", "build", "by_year", capsys=capsys)[0] == 0
    args = ("cube", "query", "by_year", "--level", "yearid")
    code, before, _ = run(loaded, *args, capsys=capsys)
    assert code == 0
    wh = cli._open_warehouse(load_config(loaded / "fvss.ini"))
    years, categories = (wh.type2.value_map("cube:by_year", a) for a in ("yearid", "category"))
    pk = min(pk for pk in years if pk not in categories)
    rg = wh.choose_rg()
    assert run(loaded, "tamper", str(rg[0]), "cube:by_year", str(pk), "sum_price",
               capsys=capsys)[0] == 0
    assert run(loaded, *args, capsys=capsys) == (0, before, "")
    code, _, err = run(loaded, *args, "--rg", ",".join(map(str, rg)), capsys=capsys)
    assert code == 2 and "InnerSignatureMismatch" in err
    code, _, err = run(loaded, *args, "--rg", "1,2,3,9", capsys=capsys)
    assert code == 3 and "CspUnavailable: CSP 9" in err


def test_cube_build_twice_fails(loaded, capsys):
    run(loaded, "cube", "build", "by_year")
    code, _, err = run(loaded, "cube", "build", "by_year", capsys=capsys)
    assert code == 1
    assert "DuplicateTable" in err


def test_cube_unknown_name_fails(loaded, capsys):
    code, _, err = run(loaded, "cube", "build", "nope", capsys=capsys)
    assert code == 1
    assert "no [cube:nope]" in err


def test_cube_build_needs_every_csp(loaded, capsys):
    run(loaded, "fail", "5")
    code, _, err = run(loaded, "cube", "build", "by_year", capsys=capsys)
    assert code == 3
    assert "CspUnavailable" in err


# a whole session, pinned byte for byte

SESSION_MORE_CSV = """\
SaleNo,ProdNo,yearid,monthid,price,qty,paid,day
4,10,2014,3,45.00,3,true,2014-03-02
5,12,2015,1,7.10,2,false,2015-01-09
"""

def test_cube_where_selects_a_string_that_looks_like_a_number(site, capsys):
    """A --where value is read as its column's kind: on the string
    dimension category, "007" and "1.50" are strings, and neither selects
    "7" or "3/2". A filter splits at its leftmost operator, the longest
    there, so a value may hold operator characters, and filters split at
    commas outside a quoted value, so a quoted value may hold commas."""
    (site / "products.csv").write_text(
        "ProdNo,pname,category\n10,Shirt,007\n11,Jacket,7\n12,Mug,1.50\n"
        "13,Cup,a<b\n14,Bowl,x>=y\n15,Pan,\"a,b\"\n")
    with (site / "sales.csv").open("a") as f:
        f.write("4,13,2015,2,3.25,1,true,2015-02-01\n5,14,2015,3,4.75,1,false,2015-03-01\n"
                "6,15,2014,4,2.50,1,true,2014-04-01\n")
    run(site, "init")
    run(site, "share", "Product", str(site / "products.csv"))
    run(site, "share", "Sales", str(site / "sales.csv"))
    assert run(site, "cube", "build", "by_year")[0] == 0
    capsys.readouterr()
    args = ("cube", "query", "by_year", "--level", "yearid,category", "--output", "csv")
    header = "yearid,category,sum_price,count_rows,avg_price\n"
    for where, row in (("category=007", "2013,007,19.99,1,19.99\n"),
                       ("category='007'", "2013,007,19.99,1,19.99\n"),
                       ("yearid=2014,category=1.50", "2014,1.50,5.25,1,5.25\n"),
                       ("category=7", "2013,7,99.5,1,99.5\n"),
                       ("category=a<b", "2015,a<b,3.25,1,3.25\n"),
                       ("category='a<b'", "2015,a<b,3.25,1,3.25\n"),
                       ("category='x>=y'", "2015,x>=y,4.75,1,4.75\n"),
                       ("yearid>=2015,category=x>=y", "2015,x>=y,4.75,1,4.75\n"),
                       ("category<=a<b,yearid>2014", "2015,a<b,3.25,1,3.25\n"),
                       # a quoted value holds its commas
                       ("category='a,b'", '2014,"a,b",2.5,1,2.5\n'),
                       ('yearid=2014, category="a,b"', '2014,"a,b",2.5,1,2.5\n')):
        assert run(site, *args, "--where", where, capsys=capsys) == (0, header + row, "")


def test_share_quotient_by_zero_exits_one_without_a_traceback(site, capsys):
    """A derived quotient whose divisor is 0 is an fvss error naming the
    table, the column and the pk; the store keeps what it held."""
    path = site / "fvss.ini"
    path.write_text(path.read_text().replace(
        "Sales = price_sq square price scale=4",
        "Sales = price_sq square price scale=4; unit quotient price qty scale=2"))
    (site / "sales.csv").write_text(
        "SaleNo,ProdNo,yearid,monthid,price,qty,paid,day\n"
        "1,10,2013,1,19.99,2,true,2013-01-05\n"
        "2,11,2013,2,99.50,0,false,2013-02-11\n")
    assert run(site, "init")[0] == 0
    assert run(site, "share", "Product", str(site / "products.csv"))[0] == 0
    capsys.readouterr()
    code, out, err = run(site, "share", "Sales", str(site / "sales.csv"), capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "OutOfRange: Sales.unit of pk 2: qty is 0\n"
    code, out, _ = run(site, "query", "SELECT COUNT(*) FROM Sales", capsys=capsys)
    assert (code, out.split()) == (0, ["COUNT(*)", "0"])


@pytest.mark.parametrize("column, kind, text", [
    ("qty", "int", "20x4"),
    ("qty", "int", "1.5"),
    ("price", "real", "abc"),
    ("day", "date", "2014-13-02"),
    ("paid", "bool", "maybe"),
])
def test_share_unreadable_cell_exits_one_without_a_traceback(site, capsys, column, kind, text):
    """A CSV cell that does not read as its column's kind is an fvss
    error naming the table, the column and the text; nothing is saved."""
    cells = {"qty": "2", "price": "19.99", "day": "2013-01-05", "paid": "true", column: text}
    (site / "sales.csv").write_text(
        "SaleNo,ProdNo,yearid,monthid,price,qty,paid,day\n"
        "1,10,2013,1,9.99,1,false,2013-01-02\n"
        "2,11,2013,2,{price},{qty},{paid},{day}\n".format(**cells))
    assert run(site, "init")[0] == 0
    assert run(site, "share", "Product", str(site / "products.csv"))[0] == 0
    capsys.readouterr()
    code, out, err = run(site, "share", "Sales", str(site / "sales.csv"), capsys=capsys)
    assert (code, out) == (1, "")
    assert err == f"SchemaMismatch: Sales.{column}: cannot read {text!r} as {kind}\n"
    code, out, _ = run(site, "query", "SELECT COUNT(*) FROM Sales", capsys=capsys)
    assert (code, out.split()) == (0, ["COUNT(*)", "0"])


def test_cube_refresh_rejects_a_malformed_new_list(loaded, capsys):
    assert run(loaded, "cube", "build", "by_year")[0] == 0
    capsys.readouterr()
    code, out, err = run(loaded, "cube", "refresh", "by_year", "--new", "1,x", capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "ConfigError: --new must be a comma list of fact primary keys, got '1,x'\n"


def test_bool_text_reads_alike_in_csv_cells_and_literals(site, capsys):
    """The words a CSV bool cell is read from select the same value as a
    cube --where filter and as a quoted query literal."""
    path = site / "fvss.ini"
    path.write_text(path.read_text().replace(
        "Sales = yearid, monthid, price, qty", "Sales = yearid, monthid, price, qty, paid")
        + "\n[cube:by_paid]\ntable = Sales\nhierarchies = paid\nmeasures = count(*)\n")
    run(site, "init")
    run(site, "share", "Product", str(site / "products.csv"))
    run(site, "share", "Sales", str(site / "sales.csv"))
    assert run(site, "cube", "build", "by_paid")[0] == 0
    capsys.readouterr()
    for word, count in (("true", 2), ("TRUE", 2), ("yes", 2), ("f", 1), ("0", 1)):
        code, out, _ = run(site, "cube", "query", "by_paid", "--level", "paid", "--where",
                           f"paid={word}", "--output", "csv", capsys=capsys)
        assert (code, out) == (0, f"paid,count_rows\n{str(bool(count - 1)).lower()},{count}\n")
        code, out, _ = run(site, "query", f"SELECT COUNT(*) FROM Sales WHERE paid = '{word}'",
                           "--output", "csv", capsys=capsys)
        assert (code, out) == (0, f"COUNT(*)\n{count}\n")


JOIN = "FROM Sales JOIN Product ON Sales.ProdNo = Product.ProdNo"

SESSION = (
    ("init",),
    ("share", "Product", "{site}/products.csv"),
    ("share", "Sales", "{site}/sales.csv"),
    ("query", "SELECT SUM(price), COUNT(*) FROM Sales"),
    ("query", "SELECT yearid, SUM(qty), AVG(price) FROM Sales GROUP BY yearid"),
    ("query", f"SELECT category, SUM(price), COUNT(qty) {JOIN} GROUP BY category"),
    ("query", f"SELECT SaleNo, price, qty, paid, day, pname {JOIN} WHERE yearid >= 2013"),
    ("query", "SELECT VAR(price), MAX(qty), MEDIAN(price) FROM Sales WHERE monthid <= 2",
     "--output", "csv"),
    ("cube", "build", "by_year"),
    ("cube", "query", "by_year", "--level", "yearid"),
    ("cube", "query", "by_year", "--level", "yearid,category", "--output", "csv"),
    ("share", "Sales", "{site}/more.csv"),
    ("cube", "refresh", "by_year", "--new", "4,5"),
    ("cube", "query", "by_year", "--level", "yearid", "--output", "csv"),
    ("cube", "query", "by_year", "--level", "yearid,category", "--where", "yearid=2014"),
    ("verify",),
    ("tamper", "2", "Sales", "1", "price"),
    ("verify",),
    ("query", "SELECT SUM(price) FROM Sales", "--rg", "1,2,3,4"),
    ("query", "SELECT SUM(price) FROM Sales"),
    ("recover", "2"),
    ("verify",),
)

# sha256 of the session's argv, exit codes, stdout and stderr, with the
# site directory written as {site}; re-captured when systematic placement
# replaced the weighted draw, which changed only the per-provider count
# lines of the three shares and the count of shares recover regenerates
SESSION_DIGEST = "1d57abe35bc44b71dff85dc2d47332e91843590910d62b7904c4aaccd67d51ea"


def test_golden_cli_session(site, capsys):
    (site / "more.csv").write_text(SESSION_MORE_CSV)
    digest = hashlib.sha256()
    for argv in SESSION:
        code = run(site, *(a.replace("{site}", str(site)) for a in argv))[0]
        out, err = capsys.readouterr()
        out, err = (text.replace(str(site), "{site}") for text in (out, err))
        digest.update(repr((argv, code, out, err)).encode())
    assert digest.hexdigest() == SESSION_DIGEST


# locking

def test_lock_blocks_second_invocation(loaded, capsys):
    lock = loaded / "warehouse" / ".lock"
    lock.write_text("held\n")
    code, _, err = run(loaded, "query", "SELECT SUM(qty) FROM Sales", capsys=capsys)
    assert code == 1
    assert "StoreLocked" in err
    lock.unlink()
    assert run(loaded, "query", "SELECT SUM(qty) FROM Sales")[0] == 0
    assert not lock.exists()  # released after a normal run


def test_lock_of_an_exited_process_is_taken_over(loaded, capsys):
    lock = loaded / "warehouse" / ".lock"
    lock.write_text(f"{os.getpid()}\n")  # a running holder still blocks
    code, _, err = run(loaded, "query", "SELECT SUM(qty) FROM Sales", capsys=capsys)
    assert code == 1 and "StoreLocked" in err
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    assert child.wait(timeout=60) == 0
    lock.write_text(f"{child.pid}\n")
    code, out, _ = run(loaded, "query", "SELECT SUM(qty) FROM Sales", capsys=capsys)
    assert code == 0 and out
    assert not lock.exists()  # taken over, then released
    assert [p.name for p in lock.parent.glob(".lock*")] == []


# configuration and environment

def test_missing_config_file_exits_one(tmp_path, capsys):
    code = cli.main(["--config", str(tmp_path / "nope.ini"), "init"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "ConfigError" in err


def test_threshold_above_n_reports_invalid_threshold(site, capsys):
    text = (site / "fvss.ini").read_text().replace("t = 4", "t = 9")
    (site / "fvss.ini").write_text(text)
    code, _, err = run(site, "init", capsys=capsys)
    assert code == 1
    assert "InvalidThreshold" in err


def test_seed_env_override_wins(site, monkeypatch, capsys):
    run(site, "init")
    run(site, "share", "Sales", str(site / "sales.csv"))
    monkeypatch.setenv("FVSS_SEED", "ff" * 32)
    code, _, _ = run(site, "query", "SELECT SUM(price) FROM Sales", capsys=capsys)
    assert code != 0  # foreign key material cannot read this store


def test_seed_env_round_trip(site, monkeypatch, capsys):
    monkeypatch.setenv("FVSS_SEED", "ab" * 32)
    run(site, "init")
    run(site, "share", "Sales", str(site / "sales.csv"))
    code, out, _ = run(site, "query", "SELECT SUM(price) FROM Sales", capsys=capsys)
    assert code == 0
    assert "124.74" in out


def test_store_flag_overrides_config_root(site, tmp_path, capsys):
    alt = tmp_path / "elsewhere"
    assert run(site, "--store", str(alt), "init")[0] == 0
    assert (alt / "index" / "tables").is_file()
    code, out, _ = run(site, "--store", str(alt), "verify", capsys=capsys)
    assert code == 0


def test_privacy_warning_when_groups_reach_threshold(tmp_path, capsys):
    cfg = tmp_path / "six.ini"
    cfg.write_text(
        "[scheme]\nn = 6\nt = 4\nseed = " + SEED_HEX + "\n"
        "[store]\nroot = " + str(tmp_path / "wh") + "\n"
        "[pricing]\n"
        "storage = 0.03, 0.04, 0.05, 0.12, 0.32, 0.10\n"
        "svm = 0.013, 0.059, 0.058, 0.060, 0.070, 0.06\n"
        "mvm = 0.026, 0.079, 0.163, 0.120, 0.140, 0.12\n"
        "lvm = 0.053, 0.120, 0.230, 0.240, 0.280, 0.24\n"
        "[table:Product]\ncolumns = ProdNo key, pname string\n"
    )
    code = cli.main(["--config", str(cfg), "init"])
    _, err = capsys.readouterr()
    assert code == 0
    assert "a storage group holds >= t shares" in err


# cost report

def test_cost_report_prints_reference_sheet(site, capsys):
    code, out, _ = run(site, "cost-report", capsys=capsys)
    assert code == 0
    assert "12.39" in out      # weighted storage bill
    assert "113.60" in out     # signed full replication bill
    assert "2.80" in out       # weighted sharing compute bill
    assert "6:57" in out and "0:42" in out


def test_cost_report_is_byte_identical_across_runs(site, capsys):
    first = run(site, "cost-report", "--output", "csv", capsys=capsys)
    second = run(site, "cost-report", "--output", "csv", capsys=capsys)
    assert first == second


# config parsing details

def test_load_config_shapes(site):
    cfg = load_config(site / "fvss.ini")
    assert (cfg.n, cfg.t) == (5, 4)
    assert cfg.seed == bytes(range(32))
    schema, index_attrs, derived = cfg.tables[1]
    assert schema.table == "Sales"
    assert schema.column("ProdNo") == Column("ProdNo", "fk", fk_table="Product")
    assert schema.column("price").scale == 2
    assert index_attrs == ("yearid", "monthid", "price", "qty")
    assert derived[0].name == "price_sq" and derived[0].kind == "square"
    spec = cfg.cubes["by_year"]
    assert spec.table == "Sales"
    assert spec.hierarchies[1].table == "Product"
    assert spec.hierarchies[1].fk == "ProdNo"
    assert [m.fn for m in spec.measures] == ["sum", "count", "avg"]


@pytest.mark.parametrize("mangle, hint", [
    (lambda s: s.replace("seed = " + SEED_HEX, "seed = zz"), "hex"),
    (lambda s: s.replace("[scheme]", "[scheme]\nbogus"), "parse"),
    (lambda s: s.replace("n = 5", "n = five"), "integer"),
    (lambda s: s.replace("ProdNo key", "ProdNo uuid"), "kind"),
    (lambda s: s + "\n[placement]\nweights = 1, 2\n", "weights"),
    (lambda s: s + "\n[placement]\nweights = 1, 1, inf, 1, 1\n", "finite"),
    (lambda s: s + "\n[placement]\nweights = 1, nan, 1, 1, 1\n", "finite"),
    (lambda s: s + "\n[placement]\nweights = 1, 1, 1, -1, 1\n", "negative"),
    (lambda s: s.replace("Product = category", "Typo = category"), "unknown tables"),
    (lambda s: s.replace("price_sq square price scale=4", "price_sq cube price"), "kind"),
    (lambda s: s.replace("measures = sum(price), count(*), avg(price)", "measures ="),
     "measure"),
    (lambda s: s.replace("table = Sales\n", ""), "table"),
    (lambda s: s.replace("qty int", "qty int scale=2"), "int column qty takes no scale"),
])
def test_config_rejections(site, mangle, hint):
    path = site / "fvss.ini"
    path.write_text(mangle(path.read_text()))
    with pytest.raises(ConfigError, match=hint):
        load_config(path)


def test_config_missing_sections(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[scheme]\nn = 5\nt = 4\nseed = 00ff\n")
    with pytest.raises(ConfigError, match="store"):
        load_config(path)
    path.write_text(
        "[scheme]\nn = 5\nt = 4\nseed = 00ff\n[store]\nroot = x\n"
    )
    with pytest.raises(ConfigError, match="table"):
        load_config(path)


# cell parsing and printing round trips

@pytest.mark.parametrize("text, kind, value", [
    ("42", "int", 42),
    ("", "int", None),
    ("81.27", "real", Fraction("81.27")),
    ("true", "bool", True),
    ("0", "bool", False),
    ("2014-03-02", "date", datetime.date(2014, 3, 2)),
    ("Shirt", "string", "Shirt"),
])
def test_parse_cell(text, kind, value):
    assert cli._parse_cell(text, Column("c", kind, scale=2), "T") == value


@pytest.mark.parametrize("value, text", [
    (None, ""),
    (True, "true"),
    (False, "false"),
    (Fraction("81.27"), "81.27"),
    (Fraction(80), "80"),
    (Fraction(-3, 8), "-0.375"),
    (Fraction(1, 3), "0.333333"),
    (datetime.date(2014, 3, 2), "2014-03-02"),
    (7, "7"),
])
def test_fmt(value, text):
    assert cli._fmt(value) == text


# start-up cost of a cold process

def test_importing_the_cli_builds_no_dataclass_machinery():
    """Every fvss command pays for its imports. The package's records are
    named tuples, so a fresh interpreter that imports fvss.cli loads
    neither dataclasses nor inspect, which dataclasses pulls in."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = "import sys, fvss.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert done.stdout == "[]\n"
