"""Span tracer for the benchmark's traced run.

It wraps the public functions of each fvss layer from the outside; the
package itself is not modified. A function that other modules imported
by name is replaced in every module that holds it, so a call is traced
whichever module it goes through. Nothing is patched until `install`,
and `uninstall` puts every original object back.

Each span records its name, start, end, parent span and the benchmark
operation it belongs to. Self time is a span's duration minus the time
covered by its child spans, so the self times of all spans add up to the
durations of the benchmark's root operation spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, qualified name) of every traced function, grouped by layer
SPANS = (
    ("field", "lagrange_interpolate"),
    ("field", "Polynomial.__call__"),
    ("keyed", "KeyMaterial.hf_star"),
    ("sharing", "share_record"),
    ("sharing", "share_value"),
    ("sharing", "select_storage_group"),
    ("sharing", "reconstruct_value"),
    ("sharing", "recover_share"),
    ("sigtree", "SignatureTree.insert_record"),
    ("sigtree", "SignatureTree.update_record"),
    ("sigtree", "SignatureTree.verify"),
    ("sigtree", "WaryTree.from_leaves"),
    ("store", "CspStore.share_sum"),
    ("store", "CspStore.null_pks"),
    ("store", "CspStore.fetch_share"),
    ("store", "CspStore.put_shared_record"),
    ("store", "CspStore.update_shared_record"),
    ("store", "TypeOneIndex.pseudo_sum"),
    ("store", "TypeTwoIndex.lookup"),
    ("store", "TypeTwoIndex.aggregate"),
    ("store", "TypeTwoIndex.value_map"),
    ("store", "TypeTwoIndex.insert"),
    ("store", "TypeTwoIndex.remove"),
    ("store", "Warehouse.save"),
    ("store", "Warehouse.load"),
    ("query", "parse"),
    ("query", "plan"),
    ("query", "execute"),
    ("query", "exec_sum"),
    ("query", "exec_count"),
    ("query", "exec_minmax_count"),
    ("query", "group_key_fn"),
    ("cube", "cube_build"),
    ("cube", "cube_refresh"),
    ("cube", "cube_query"),
    ("cube", "share_cell_chunk"),
    ("config", "load_config"),
    ("cli", "run"),
)

# the query layer's retry loop; counted, not timed
RG_ATTEMPT = ("query", "_execute_with")

LAYERS = ("field", "keyed", "sharing", "sigtree", "store", "query", "cube", "config_cli")


def layer_of(span: str) -> str:
    module = span.split(".", 1)[0]
    return "config_cli" if module in ("config", "cli") else module


# counter name and increment, read from a traced call's (self, *args) and result
_HOOKS = {
    "sigtree.SignatureTree.verify": ("sigtree.nodes_inspected", lambda a, r: r.inspected),
    "store.TypeTwoIndex.aggregate": (
        "store.TypeTwoIndex.aggregate.entries_scanned",
        lambda a, r: len(a[0].maps.get((a[1], a[2]), ())),
    ),
    "store.TypeTwoIndex.value_map": (
        "store.TypeTwoIndex.value_map.entries_built", lambda a, r: len(r),
    ),
    "store.CspStore.share_sum": ("store.pks_scanned", lambda a, r: len(a[3])),
    "store.CspStore.null_pks": ("store.pks_scanned", lambda a, r: len(a[3])),
    "store.TypeOneIndex.pseudo_sum": ("store.pks_scanned", lambda a, r: len(a[2])),
    "query.execute": ("query.results", lambda a, r: len(r[1])),
    "cube.cube_query": ("query.results", lambda a, r: len(r[1])),
}


def _resolve(module, qualname):
    """(owner, attribute) of the object defining a traced name."""
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory spans plus per-span call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._ops = 0
        self._stack: list[list] = []   # [span index, time covered by children]
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def _enter(self, nid: int) -> list:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, nid: int, frame: list, t0: float, t1: float):
        self._stack.pop()
        dur = t1 - t0
        idx = frame[0]
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        self.calls[nid] += 1
        self.self_s[nid] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def op(self, kind: str):
        """Root span around one benchmark operation; fvss spans nest in it."""
        nid = self._name_id(f"bench.{kind}")
        self.op_id = self._ops
        self._ops += 1
        frame = self._enter(nid)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(nid, frame, t0, perf_counter())
            self.op_id = -1

    # patching

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter, count = _HOOKS.get(name, (None, None))
        enter, exit_, counters = self._enter, self._exit, self.counters

        def traced(*args, **kwargs):
            frame = enter(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(nid, frame, t0, perf_counter())
            if counter is not None:
                counters[counter] += count(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _counted(self, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters["query.rg_attempts"] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def _replace_everywhere(self, original, replacement):
        for mod in _fvss_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap every traced function. Callers outside fvss must reach traced
        functions through their module, as the benchmark does."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import fvss.cli  # noqa: F401  (the package does not import its CLI)

        for module, qualname in SPANS + (RG_ATTEMPT,):
            mod = sys.modules[f"fvss.{module}"]
            owner, attr = _resolve(mod, qualname)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if (module, qualname) == RG_ATTEMPT:
                self._replace_everywhere(original, self._counted(original))
                continue
            name = f"{module}.{qualname}"
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__))
                else:
                    replacement = self._wrap(name, original)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, replacement)
            else:
                self._replace_everywhere(original, self._wrap(name, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # results

    def totals(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self seconds)"""
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)}

    def root_seconds(self) -> float:
        """Summed duration of the root operation spans."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start)) if self.span_parent[i] == -1
        )

    def write(self, path) -> int:
        """Dump spans as gzipped CSV: name,start,end,parent,op. Returns the count."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{names[self.span_name[i]]},{self.span_start[i]:.9f},"
                    f"{self.span_end[i]:.9f},{self.span_parent[i]},{self.span_op[i]}\n"
                )
        return len(self.span_start)


def _fvss_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "fvss" or name.startswith("fvss."))
    ]


def originals() -> dict[tuple[int, str], object]:
    """Every (namespace, attribute) binding a traced function, mapped to the
    object it holds now; compare before and after a run to prove nothing
    stayed patched."""
    import fvss.cli  # noqa: F401

    out = {}
    for module, qualname in SPANS + (RG_ATTEMPT,):
        owner, attr = _resolve(sys.modules[f"fvss.{module}"], qualname)
        if isinstance(owner, type):
            out[(id(owner), attr)] = owner.__dict__[attr]
            continue
        fn = getattr(owner, attr)
        for mod in _fvss_modules():
            for name, value in vars(mod).items():
                if value is fn:
                    out[(id(mod), name)] = value
    return out
