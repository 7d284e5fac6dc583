"""fvss benchmark: one workload, one seed, one measured window.

    python3 bench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout of the repository; it imports the
checkout's own `src/fvss` and `tests/oracles.py`, and writes only under
the checkout's `.bench_tmp/` (stores, removed at exit) and `.bench_out/`
(the full report and, with --trace 1, the spans).

--trace 0 measures the end-to-end metrics with no tracing. --trace 1
first runs an untraced half window, then traces a fresh set-up, a half
window and the gate, and reports per-layer self times, call counts and
counters, plus the tracing overhead (traced minus untraced calibrated
pass time).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Any wrong answer or raised
operation makes `correct` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _layout_ok() -> bool:
    return (SRC / "fvss" / "__init__.py").is_file() and (ROOT / "tests" / "oracles.py").is_file()


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "none (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "fvss").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "analytics", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not _layout_ok():
        print(f"bench: no fvss checkout around {ROOT} (need src/fvss and tests/oracles.py)",
              file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # the benchmark's INI carries its own seed; an inherited override would not match
    os.environ.pop("FVSS_SEED", None)

    from bench.report import run_workload

    scratch = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    scratch.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    started = perf_counter()
    try:
        result, lines, full = run_workload(
            args.workload, args.seed, args.seconds, args.trace, scratch, SRC, out_dir
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    full["meta"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc(),
        "commit": git_commit(ROOT),
        "src_sha256": src_digest(SRC),
        "wall_s": perf_counter() - started,
        **full.get("meta", {}),
    }
    meta = full["meta"]
    print(f"fvss benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"python {meta['python']}  nproc {meta['nproc']}  "
          f"n={meta['n']} t={meta['t']} p={meta['p']} w={meta['w']}")
    print(f"commit {meta['commit']}  src sha256 {meta['src_sha256']}")
    print("sizes " + " ".join(f"{k}={v}" for k, v in meta["sizes"].items()))
    for line in lines:
        print(line)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
