"""Runs one workload and turns its timings and trace into the report."""

from __future__ import annotations

import gc
from pathlib import Path
from time import perf_counter

from fvss import sharing

from .datagen import Generator
from .recorder import REF_NEIGHBOURS, REF_NOMINAL_S, Abort, Recorder, median, percentile, tail
from .tracer import LAYERS, SPANS, Tracer, layer_of
from .workloads import WORKLOADS

# end-to-end metrics of every workload, as BENCHMARK.json lists them
E2E_UNITS = {"setup_s": "s", "pass_cal_ms": "ms"}

# spans whose self time is reported one by one: the hot spans of each
# layer, each of which runs in every workload's traced run
SELF_TIME_SPANS = (
    "field.lagrange_interpolate",
    "field.Polynomial.__call__",
    "keyed.KeyMaterial.hf_star",
    "sharing.share_value",
    "sharing.share_record",
    "sharing.reconstruct_value",
    "sigtree.SignatureTree.insert_record",
    "sigtree.SignatureTree.verify",
    "sigtree.WaryTree.from_leaves",
    "store.CspStore.share_sum",
    "store.CspStore.null_pks",
    "store.CspStore.put_shared_record",
    "store.TypeOneIndex.pseudo_sum",
    "store.TypeTwoIndex.aggregate",
    "store.TypeTwoIndex.value_map",
    "store.TypeTwoIndex.insert",
    "store.TypeTwoIndex.lookup",
    "store.Warehouse.save",
    "store.Warehouse.load",
    "query.execute",
    "query.exec_sum",
    "query.group_key_fn",
    "cube.cube_build",
    "cube.share_cell_chunk",
    "config.load_config",
)

COUNTERS = (
    "sharing.reconstructions",
    "sigtree.nodes_inspected",
    "store.TypeTwoIndex.aggregate.entries_scanned",
    "store.TypeTwoIndex.value_map.entries_built",
    "store.pks_scanned_per_result",
    "store.bytes_transferred",
    "store.disk_bytes_per_row",
    "query.rg_attempts_per_query",
)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in report order."""
    out = [(f"{m}.{q}.calls", "count") for m, q in SPANS]
    out += [(f"{span}.self_s", "s") for span in SELF_TIME_SPANS]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [("bench.self_s", "s")]
    out += [(name, "count") for name in COUNTERS]
    out += [("trace.ops", "count"), ("trace.overhead_ms", "ms"), ("trace.overhead_pct", "%")]
    return out


def _window_ops(wl, samples) -> int:
    return sum(len(samples[kind]) for kind in wl.mix)


def e2e_metrics(wl, rec) -> dict[str, float]:
    """setup_s is the median calibrated time of the set-ups. pass_cal_ms is
    one pass of the workload's operation mix, each operation at its median
    calibrated time."""
    cal = {kind: rec.calibrated(kind) for kind in wl.mix}
    return {
        "setup_s": median(rec.calibrated("setup")),
        "pass_cal_ms": wl.pass_seconds(cal) * 1000,
    }


def pass_shares(wl, rec) -> dict[str, float]:
    """Each operation kind's share of pass_cal_ms. A kind that is a share s
    of the pass must get slower by bound / s before pass_cal_ms leaves its
    bound, so later changes compare the per-operation lines as well."""
    cal = {kind: rec.calibrated(kind) for kind in wl.mix}
    total = wl.pass_seconds(cal)
    return {kind: count * median(cal[kind]) / total for kind, count in wl.mix.items()}


def _timing_line(name, unit, values, fn, pct, cal=None) -> str:
    """Median (or the named percentile) of wall times, the highest percentile
    with ten samples beyond it, the sample count and the calibrated value."""
    pick = median if pct == 50 else (lambda v: percentile(v, pct))
    label = "median" if pct == 50 else f"p{pct:g}"
    if pct != 50 and len(values) * (1 - pct / 100) < 10:
        label += " (under 10 beyond)"
    t = tail(values)
    tail_txt = f"p{t[0]:g} {fn(t[1]):.6g}" if t else "no percentile has 10 beyond"
    cal_txt = f"; calibrated {fn(pick(cal)):.6g}" if cal else ""
    return (f"  {name:<18} {fn(pick(values)):>12.6g} {unit:<4} {label}; {tail_txt}; "
            f"n={len(values)}{cal_txt}")


def _run_phases(wl, rec, seconds, setups=1, prepare=False):
    """Set up (the last set-up is the start state), run the window, gate.
    False when an operation raised."""
    try:
        rec.calibrating = True
        for _ in range(REF_NEIGHBOURS):
            rec.calibrate()
        for _ in range(setups):
            wl.setup(rec)
        if prepare:
            wl.prepare()
        gc.collect()
        rec.calibrate()
        wl.window(rec, seconds)
        for _ in range(REF_NEIGHBOURS):
            rec.calibrate()
        rec.calibrating = False
        wl.gate(rec)
    except Abort:
        return False
    return True


def run_workload(name: str, seed: int, seconds: float, trace: int, scratch: Path,
                 src: Path, out_dir: Path, sizes=None):
    """Returns (result object, report lines, full report)."""
    wl = WORKLOADS[name](Generator(seed), scratch, src, sizes)
    lines = []
    plain = Recorder()
    window = seconds / 2 if trace else seconds
    completed = _run_phases(wl, plain, window, setups=1 if trace else wl.setup_repeats,
                            prepare=True)
    wh = wl.site.wh if wl.site is not None else None
    full = {"meta": {"sizes": dict(wl.sizes), "n": wh and wh.km.n, "t": wh and wh.km.t,
                     "p": wh and wh.km.p, "w": wh and wh.w}}

    recs = [plain]
    metrics: dict[str, tuple[float, str]] = {}
    if completed and not trace:
        lines.append("per operation (wall time):")
        for metric, unit, kind, fn, pct in wl.named_metrics():
            lines.append(_timing_line(metric, unit, plain.samples[kind], fn, pct,
                                      plain.calibrated(kind)))
        lines.append(_timing_line("setup_s", "s", plain.samples["setup"], lambda t: t, 50,
                                  plain.calibrated("setup")))
        lines.append(f"  pass_ms (wall)     {wl.pass_seconds(plain.samples) * 1000:>12.6g} ms")
        shares = pass_shares(wl, plain)
        lines.append("  share of pass_cal_ms: " + ", ".join(
            f"{kind} {share * 100:.1f}%" for kind, share in shares.items()))
        full["pass_shares"] = shares
        lines.append(f"  reference loop     {median(plain.ref_s) * 1000:>12.6g} ms   median; "
                     f"n={len(plain.ref_s)}; calibration takes it as {REF_NOMINAL_S * 1000:g} ms")
        for metric, value in e2e_metrics(wl, plain).items():
            metrics[metric] = (value, E2E_UNITS[metric])
    elif completed:
        tracer = Tracer()
        traced = Recorder(tracer)
        recs.append(traced)
        before = sharing.RECONSTRUCTIONS.count
        tracer.install()
        try:
            completed = _run_phases(wl, traced, window)
        finally:
            tracer.uninstall()
        if completed:
            metrics = _per_layer(wl, plain, traced, tracer,
                                 sharing.RECONSTRUCTIONS.count - before)
            spans = tracer.write(out_dir / f"{name}-seed{seed}.spans.csv.gz")
            lines.append(f"traced {spans} spans; top self times:")
            totals = sorted(tracer.totals().items(), key=lambda kv: -kv[1][1])
            for span, (calls, self_s) in totals[:12]:
                lines.append(f"  {span:<40} {self_s:>10.4f} s  calls={calls}")

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    correct = completed and failed == 0
    lines.append("end to end:" if not trace else "per layer:")
    for metric, (value, unit) in metrics.items():
        lines.append(f"  {metric:<44} {value:>16.6g} {unit}")
    lines.append(f"failed_op_frac {failed / max(1, attempted):.6g} "
                 f"({failed} of {attempted} operations)")
    for failure in (f for r in recs for f in r.failures):
        lines.append(f"  FAILED {failure}")
    full["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    full["samples"] = dict(plain.samples)
    full["calibrated"] = {kind: plain.calibrated(kind) for kind in plain.stamps}
    full["reference_s"] = plain.ref_s
    full["failures"] = [f for r in recs for f in r.failures]
    result = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": full["metrics"],
    }
    return result, lines, full


def _per_layer(wl, plain, traced, tracer, reconstructions) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()
    counters = tracer.counters
    values: dict[str, float] = {}
    for module, qualname in SPANS:
        values[f"{module}.{qualname}.calls"] = totals.get(f"{module}.{qualname}", (0, 0.0))[0]
    for span in SELF_TIME_SPANS:
        values[f"{span}.self_s"] = totals.get(span, (0, 0.0))[1]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            s for span, (_, s) in totals.items()
            if not span.startswith("bench.") and layer_of(span) == layer
        )
    values["bench.self_s"] = sum(s for span, (_, s) in totals.items() if span.startswith("bench."))
    queries = totals.get("query.execute", (0, 0.0))[0]
    values.update({
        "sharing.reconstructions": reconstructions,
        "sigtree.nodes_inspected": counters["sigtree.nodes_inspected"],
        "store.TypeTwoIndex.aggregate.entries_scanned":
            counters["store.TypeTwoIndex.aggregate.entries_scanned"],
        "store.TypeTwoIndex.value_map.entries_built":
            counters["store.TypeTwoIndex.value_map.entries_built"],
        "store.pks_scanned_per_result":
            counters["store.pks_scanned"] / max(1, counters["query.results"]),
        "store.bytes_transferred": traced.bytes_transferred,
        "store.disk_bytes_per_row": wl.disk_bytes_per_row,
        "query.rg_attempts_per_query": counters["query.rg_attempts"] / max(1, queries),
        "trace.ops": _window_ops(wl, traced.samples),
    })
    # calibrated, so that the machine's drift between the two half windows
    # does not show as overhead; the reference loop calls no traced code
    kinds = [kind for kind in wl.mix if kind not in wl.in_process_when_traced]
    plain_pass = wl.pass_seconds({k: plain.calibrated(k) for k in kinds}, wl.in_process_when_traced)
    traced_pass = wl.pass_seconds({k: traced.calibrated(k) for k in kinds},
                                  wl.in_process_when_traced)
    values["trace.overhead_ms"] = (traced_pass - plain_pass) * 1000
    values["trace.overhead_pct"] = (traced_pass / plain_pass - 1) * 100
    return {name: (values[name], unit) for name, unit in per_layer_names()}
