"""In-memory span tracer wrapped around crossclust from the outside.

Every public function of the package modules (``rng`` and ``errors``
excepted) is replaced by a wrapper that records a span: name, start, end,
parent span and op id.  Because modules bind each other's functions with
``from .x import f``, a wrapper is installed in every module namespace that
holds the function, not just the defining one.  A few methods are wrapped
on their class: ``DataMatrix.__init__`` (validation), ``DataMatrix.transpose``
and ``Partition.__init__``.  ``enumerate_partitions`` returns a generator,
so each ``next()`` on it is a span of its own.

Self time of a span is its duration minus the durations of its direct
children.  Spans are kept in flat arrays and written out with ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: Modules whose public functions get spans.  ``rng`` has no span of its
#: own: its cost shows in its callers (the generators and Lloyd seeding).
TRACED_MODULES = ("model", "cost", "oneway", "search", "bounds", "worstcase", "cli")

WALK = "model.enumerate_partitions.next"
GENERATORS = (
    "worstcase.random_binary_matrix",
    "worstcase.random_real_matrix",
    "worstcase.planted_real_matrix",
    "worstcase.worst_case_matrix",
)


@functools.lru_cache(maxsize=None)
def partition_count(t: int, k: int) -> int:
    """Partitions of ``t`` items into at most ``k`` nonempty clusters."""
    if k <= 1:
        return 1
    row = [1] + [0] * t  # Stirling numbers of the second kind S(i, j), row by row
    for _ in range(t):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, t + 1)]
    return sum(row[1 : k + 1])


def _arg(args, kwargs, index, name):
    """A call argument given by position or by keyword."""
    if len(args) > index:
        return args[index]
    return kwargs[name]


def _hooks() -> dict:
    """Counters bumped after a call returns: ``hook(counters, args, kwargs,
    result)``, by span name.  They must stay cheap: their time counts in
    the caller's span."""

    def entries(c, a, k, result):
        c["worstcase.entries"] += result.n_rows * result.n_cols

    def csv_bytes(c, a, k, result):
        c["model.csv_bytes"] += os.path.getsize(_arg(a, k, 0, "path"))

    def lloyd(c, a, k, result):
        c["oneway.lloyd_restarts"] += result.mode.restarts
        c["oneway.lloyd_iterations"] += result.iterations

    def oracle(c, a, k, result):
        x = _arg(a, k, 0, "x")
        c["search.oracle_pairs"] += partition_count(
            x.n_rows, _arg(a, k, 1, "k_r")
        ) * partition_count(x.n_cols, _arg(a, k, 2, "k_c"))

    def swaps(c, a, k, result):
        c["bounds.swap_steps"] += len(result[1])

    hooks = {name: entries for name in GENERATORS}
    hooks.update(
        {
            "model.load_matrix_csv": csv_bytes,
            "oneway.lloyd_kcluster": lloyd,
            "search.exact_biclustering": oracle,
            "bounds.swap_normalize": swaps,
        }
    )
    return hooks


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "crossclust" or name.startswith("crossclust.")
    ]


class _TimedWalk:
    """Iterator proxy: one span per ``next()``."""

    __slots__ = ("_it", "_tracer", "_nid")

    def __init__(self, it, tracer, nid):
        self._it, self._tracer, self._nid = it, tracer, nid

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        sid = tracer.open(self._nid)
        try:
            item = next(self._it)
        finally:
            tracer.close(sid)
        tracer.counters["model.partitions"] += 1
        return item


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._targets: list[tuple[object, str, object, object]] = []
        self.originals: dict[int, tuple[object, str]] = {}

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str, hook=None):
        nid = self.name_id(name)
        walk = name == "model.enumerate_partitions"
        walk_nid = self.name_id(WALK) if walk else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            if walk:
                return _TimedWalk(result, self, walk_nid)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions in every module namespace
        that binds them, plus the traced methods.  Wrappers are built on
        the first call and reused."""
        if not self._targets:
            self._targets = self._find_targets()
        for obj, attr, _, wrapper in self._targets:
            setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original, _ in self._targets:
            setattr(obj, attr, original)

    def _find_targets(self) -> list[tuple[object, str, object, object]]:
        from crossclust.model import DataMatrix, Partition

        hooks = _hooks()
        wrappers: dict[int, tuple[object, object]] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"crossclust.{short}"]
            for attr, value in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(value)] = (value, self._wrap(value, name, hooks.get(name)))
                self.originals[id(value)] = (value, name)
        targets = []
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    targets.append((mod, attr, value, hit[1]))
        for cls, attr, name in (
            (DataMatrix, "__init__", "model.DataMatrix"),
            (DataMatrix, "transpose", "model.DataMatrix.transpose"),
            (Partition, "__init__", "model.Partition"),
        ):
            original = vars(cls)[attr]
            targets.append((cls, attr, original, self._wrap(original, name)))
        return targets

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes still bound to an original function while the
        tracer is installed; must be empty."""
        left = []
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                hit = self.originals.get(id(value))
                if hit is not None and hit[0] is value:
                    left.append(f"{mod.__name__}.{attr}")
        return left

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        names = np.frombuffer(self.name, dtype=np.intc)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        excl = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(excl[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def op_spans(self, op_id: int, name: str) -> float:
        """Inclusive seconds of spans ``name`` recorded during op ``op_id``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        names = np.frombuffer(self.name, dtype=np.intc)
        ops = np.frombuffer(self.op, dtype=np.intc)
        mask = (names == nid) & (ops == op_id)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return float(dur[mask].sum())

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            op=np.frombuffer(self.op, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _incl(agg, *names):
    return sum(agg.get(n, {}).get("incl_s", 0.0) for n in names)


def _self(agg, *names):
    return sum(agg.get(n, {}).get("self_s", 0.0) for n in names)


def _calls(agg, *names):
    return sum(agg.get(n, {}).get("calls", 0) for n in names)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(agg: dict, counters: dict, stdout_bytes: int, overhead: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    c = counters
    oracle_self = _self(agg, "search.exact_biclustering")
    walk = _incl(agg, WALK, "model.enumerate_partitions")
    oneway_calls = _calls(agg, "cost.oneway_row_cost", "cost.oneway_col_cost")
    oneway_s = _incl(agg, "cost.oneway_row_cost", "cost.oneway_col_cost")
    lloyd_self = _self(agg, "oneway.lloyd_kcluster")
    load_s = _incl(agg, "model.load_matrix_csv")
    gen_s = _incl(agg, *GENERATORS)
    bounds_calls = sum(v["calls"] for n, v in agg.items() if n.startswith("bounds."))
    cli_self = sum(v["self_s"] for n, v in agg.items() if n.startswith("cli."))
    m = {
        "search.oracle_calls": (_calls(agg, "search.exact_biclustering"), "count"),
        "search.oracle_self_s": (oracle_self, "s"),
        "search.oracle_pairs": (c["search.oracle_pairs"], "count"),
        "search.oracle_ns_per_pair": (_ratio(oracle_self, c["search.oracle_pairs"], 1e9), "ns"),
        "model.partitions": (c["model.partitions"], "count"),
        "model.walk_s": (walk, "s"),
        "model.walk_ns_per_partition": (_ratio(walk, c["model.partitions"], 1e9), "ns"),
        "model.partition_objects": (_calls(agg, "model.Partition"), "count"),
        "cost.oneway_calls": (oneway_calls, "count"),
        "cost.oneway_s": (oneway_s, "s"),
        "cost.oneway_us_per_call": (_ratio(oneway_s, oneway_calls, 1e6), "us"),
        "cost.bicluster_calls": (_calls(agg, "cost.biclustering_cost"), "count"),
        "cost.bicluster_s": (_incl(agg, "cost.biclustering_cost"), "s"),
        "cost.dissimilarity_calls": (_calls(agg, "cost.dissimilarity"), "count"),
        "cost.dissimilarity_s": (_incl(agg, "cost.dissimilarity"), "s"),
        "oneway.exact_calls": (_calls(agg, "oneway.exact_kcluster"), "count"),
        "oneway.exact_self_s": (_self(agg, "oneway.exact_kcluster"), "s"),
        "oneway.lloyd_restarts": (c["oneway.lloyd_restarts"], "count"),
        "oneway.lloyd_iterations": (c["oneway.lloyd_iterations"], "count"),
        "oneway.lloyd_self_s": (lloyd_self, "s"),
        "oneway.lloyd_ms_per_restart": (_ratio(lloyd_self, c["oneway.lloyd_restarts"], 1e3), "ms"),
        "model.load_csv_s": (load_s, "s"),
        "model.load_csv_mb_per_s": (_ratio(c["model.csv_bytes"] / 1e6, load_s), "MB/s"),
        "model.transpose_s": (_incl(agg, "model.DataMatrix.transpose"), "s"),
        "worstcase.gen_calls": (_calls(agg, *GENERATORS), "count"),
        "worstcase.entries": (c["worstcase.entries"], "count"),
        "worstcase.gen_s": (gen_s, "s"),
        "worstcase.entries_per_s": (_ratio(c["worstcase.entries"], gen_s), "1/s"),
        "worstcase.family_s": (_incl(agg, "worstcase.worst_case_report"), "s"),
        "bounds.calls": (bounds_calls, "count"),
        "bounds.per_block_s": (_incl(agg, "bounds.per_bicluster_bound"), "s"),
        "bounds.lower_bound_self_s": (_self(agg, "bounds.lower_bound_check"), "s"),
        "bounds.swap_s": (_incl(agg, "bounds.swap_normalize"), "s"),
        "bounds.swap_steps": (c["bounds.swap_steps"], "count"),
        "bounds.l2_identity_s": (_incl(agg, "bounds.l2_decomposition"), "s"),
        "bounds.alpha_search_s": (_incl(agg, "bounds.grid_search_alpha"), "s"),
        "search.scheme_self_s": (_self(agg, "search.run_scheme"), "s"),
        "search.ratio_self_s": (_self(agg, "search.ratio"), "s"),
        "cli.self_s": (cli_self, "s"),
        "cli.stdout_bytes": (stdout_bytes, "count"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    return m
