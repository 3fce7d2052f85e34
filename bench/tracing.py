"""Spans recorded around the public functions of each fracbk module.

The wrappers live here, in the benchmark, and are installed at run time:
fracbk itself is not changed.  The modules bind each other's functions with
``from .x import y``, so a function is replaced in every ``fracbk.*``
namespace that binds it (found by identity), not only in its home module.

A span records its name, start, end, parent span and request id.  Spans are
kept in memory in flat arrays and written out when the run ends.  A span's
self time is its duration minus the durations of its child spans (children
never overlap: the program is single-threaded).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _points(sig, args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    y = args[2] if len(args) > 2 else kwargs.get("y")
    return (np.broadcast(z, y).size if y is not None else np.size(z)), 0


def _row_length(sig, args, kwargs, result):
    return len(result.weights), 0


def _uni_evals(sig, args, kwargs, result):
    return (result.params.m + 1) * _arg(sig, args, kwargs, "order"), 0


def _biv_evals(sig, args, kwargs, result):
    order = _arg(sig, args, kwargs, "order")
    return (result.bp.px.m + 1) * (result.bp.py.m + 1) * order * order, 0


def _first_modulus(sig, args, kwargs, result):
    from fracbk.error_analysis import _shift_count

    return result.grid_n, _shift_count(result.delta, result.grid_n)


def _second_modulus(sig, args, kwargs, result):
    from fracbk.error_analysis import _shift_count

    n = result.grid_n
    return n, min(_shift_count(result.delta, n), (n - 1) // 2)


def _text_bytes(sig, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return len(text.encode()), 0


# (module, attribute, hook giving the span's two counts).  An attribute
# "Class.method" is replaced on the class.  A missing target is skipped, so
# a later refactor that removes a name only zeroes its metrics.
TARGETS = (
    ("fracbk.quadrature", "gauss_jacobi_rule", None),
    ("fracbk.exprlib", "parse_source", None),
    ("fracbk.exprlib", "evaluate", _points),
    ("fracbk.basis", "basis_row", _row_length),
    ("fracbk.operator_uni", "kernel_integrals", _uni_evals),
    ("fracbk.operator_uni", "apply_kernel", None),
    ("fracbk.operator_biv", "biv_kernel_integrals", _biv_evals),
    ("fracbk.operator_biv", "surface_rows", None),
    ("fracbk.operator_biv", "partial_moduli", None),
    ("fracbk.operator_biv", "complete_modulus", None),
    ("fracbk.error_analysis", "modulus_continuity", _first_modulus),
    ("fracbk.error_analysis", "second_modulus", _second_modulus),
    ("fracbk.error_analysis", "error_table", None),
    ("fracbk.experiments", "table_dataset", None),
    ("fracbk.experiments", "figure_dataset", None),
    ("fracbk.experiments", "compare_rows", None),
    ("fracbk.experiments", "to_csv", None),
    ("fracbk.error_analysis", "ErrorTable.to_csv", None),
    ("fracbk.cli", "_write", _text_bytes),
    ("fracbk.cli", "main", None),
)
SPAN_NAMES = tuple(f"{mod.removeprefix('fracbk.')}.{attr}" for mod, attr, _ in TARGETS)
_COLUMNS = ("layer", "request", "parent", "start", "end", "count_a", "count_b")


def _rule_cache():
    quadrature = sys.modules.get("fracbk.quadrature")
    info = getattr(getattr(quadrature, "_build_rule", None), "cache_info", None)
    return info() if info is not None else None


class Tracer:
    """Span recorder.  install() wraps the targets; restore() puts the
    original functions back.  Spans accumulate over several install/restore
    cycles, tagged with ``request_id``."""

    def __init__(self):
        self.layer, self.request, self.parent = array("i"), array("i"), array("i")
        self.start, self.end = array("q"), array("q")
        self.count_a, self.count_b = array("q"), array("q")
        self.request_id = 0
        self.cache_hits = self.cache_misses = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._cache_at_install = None

    def __len__(self) -> int:
        return len(self.layer)

    def _wrap(self, index, fn, hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.layer)
            self.layer.append(index)
            self.request.append(self.request_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.count_a.append(0)
            self.count_b.append(0)
            self.end.append(0)
            self._stack.append(span)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = perf_counter_ns()
                self._stack.pop()
            if hook is not None:
                self.count_a[span], self.count_b[span] = hook(sig, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "fracbk" or name.startswith("fracbk.")]
        for index, (modname, attr, hook) in enumerate(TARGETS):
            home = sys.modules.get(modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(index, original, hook)
            owners = [owner] if owner_name else namespaces
            for ns in owners:
                for name in [n for n, v in vars(ns).items() if v is original]:
                    setattr(ns, name, wrapper)
                    self._installed.append((ns, name, original))
        self._cache_at_install = _rule_cache()

    def restore(self) -> None:
        cache = _rule_cache()
        if cache is not None and self._cache_at_install is not None:
            self.cache_hits += cache.hits - self._cache_at_install.hits
            self.cache_misses += cache.misses - self._cache_at_install.misses
        for ns, name, original in reversed(self._installed):
            setattr(ns, name, original)
        self._installed.clear()

    def dump(self) -> dict:
        out = {col: getattr(self, col).tolist() for col in _COLUMNS}
        out["cache"] = [self.cache_hits, self.cache_misses]
        return out

    def extend(self, dumped: dict, request_id: int) -> None:
        """Append spans dumped by another process as request ``request_id``."""
        offset = len(self.layer)
        self.layer.extend(dumped["layer"])
        self.request.extend([request_id] * len(dumped["layer"]))
        self.parent.extend([p + offset if p >= 0 else -1 for p in dumped["parent"]])
        for col in ("start", "end", "count_a", "count_b"):
            getattr(self, col).extend(dumped[col])
        self.cache_hits += dumped["cache"][0]
        self.cache_misses += dumped["cache"][1]

    def write_csv(self, path) -> None:
        """Spans as gzip-compressed CSV, one line per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("request,span,parent,name,start_ns,end_ns,count_a,count_b\n")
            for i in range(len(self.layer)):
                fh.write(f"{self.request[i]},{i},{self.parent[i]},{SPAN_NAMES[self.layer[i]]},"
                         f"{self.start[i]},{self.end[i]},{self.count_a[i]},{self.count_b[i]}\n")


# Per-layer metrics: name -> unit.  *_ms are inclusive span times summed over
# the traced pass, except the two self times apply_ms and main_self_ms.
PER_LAYER = {
    "import.numpy_ms": "ms",
    "import.scipy_ms": "ms",
    "import.fracbk_ms": "ms",
    "quadrature.rule_calls": "count",
    "quadrature.rule_ms": "ms",
    "quadrature.rule_hit_ratio": "ratio",
    "exprlib.parse_calls": "count",
    "exprlib.parse_ms": "ms",
    "exprlib.eval_calls": "count",
    "exprlib.eval_ms": "ms",
    "exprlib.eval_points": "count",
    "exprlib.points_per_call": "points/call",
    "basis.row_calls": "count",
    "basis.row_ms": "ms",
    "basis.row_weights": "count",
    "operator_uni.kernel_ms": "ms",
    "operator_uni.kernel_evals": "count",
    "operator_uni.apply_calls": "count",
    "operator_uni.apply_ms": "ms",
    "operator_biv.kernel_ms": "ms",
    "operator_biv.kernel_evals": "count",
    "operator_biv.surface_ms": "ms",
    "operator_biv.moduli_ms": "ms",
    "operator_biv.moduli_cells": "count",
    "error_analysis.moduli_calls": "count",
    "error_analysis.moduli_ms": "ms",
    "error_analysis.moduli_grid_points": "count",
    "error_analysis.moduli_shifts": "count",
    "error_analysis.table_ms": "ms",
    "experiments.dataset_ms": "ms",
    "experiments.csv_ms": "ms",
    "experiments.csv_bytes": "bytes",
    "cli.main_self_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}

# Span names summed into one metric; nested spans of one group (table 4
# calls compare_rows) count once, through the outermost span.
_GROUPS = {
    "rule": ("quadrature.gauss_jacobi_rule",),
    "parse": ("exprlib.parse_source",),
    "eval": ("exprlib.evaluate",),
    "row": ("basis.basis_row",),
    "uni_kernel": ("operator_uni.kernel_integrals",),
    "apply": ("operator_uni.apply_kernel",),
    "biv_kernel": ("operator_biv.biv_kernel_integrals",),
    "surface": ("operator_biv.surface_rows",),
    "biv_moduli": ("operator_biv.partial_moduli", "operator_biv.complete_modulus"),
    "moduli": ("error_analysis.modulus_continuity", "error_analysis.second_modulus"),
    "table": ("error_analysis.error_table",),
    "dataset": ("experiments.table_dataset", "experiments.figure_dataset",
                "experiments.compare_rows"),
    "csv": ("experiments.to_csv", "error_analysis.ErrorTable.to_csv", "cli._write"),
    "main": ("cli.main",),
}


def aggregate(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics (without import.* and trace.overhead_ms)."""
    group_of = [None] * len(SPAN_NAMES)
    for group, names in _GROUPS.items():
        for name in names:
            group_of[SPAN_NAMES.index(name)] = group
    calls = dict.fromkeys(_GROUPS, 0)
    incl = dict.fromkeys(_GROUPS, 0)
    self_ns = dict.fromkeys(_GROUPS, 0)
    count_a = dict.fromkeys(_GROUPS, 0)
    count_b = dict.fromkeys(_GROUPS, 0)
    n = len(tracer)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child_ns = [0] * n
    for i in range(n):
        if tracer.parent[i] >= 0:
            child_ns[tracer.parent[i]] += dur[i]
    # enclosing[i]: the groups of i and of the spans around it.  Spans are
    # appended parent-first, so a parent is resolved before its children.
    enclosing: list = [None] * n
    interned: dict = {}
    in_biv_moduli = [False] * n
    biv_cells = 0
    for i in range(n):
        group = group_of[tracer.layer[i]]
        p = tracer.parent[i]
        around = enclosing[p] if p >= 0 else frozenset()
        key = (around, group)
        if key not in interned:
            interned[key] = around | {group}
        enclosing[i] = interned[key]
        in_biv_moduli[i] = group == "biv_moduli" or (p >= 0 and in_biv_moduli[p])
        calls[group] += 1
        count_a[group] += tracer.count_a[i]
        count_b[group] += tracer.count_b[i]
        self_ns[group] += dur[i] - child_ns[i]
        if group not in around:
            incl[group] += dur[i]
        if group == "eval" and in_biv_moduli[i]:
            biv_cells += tracer.count_a[i]
    ms = {g: v / 1e6 for g, v in incl.items()}
    lookups = tracer.cache_hits + tracer.cache_misses
    return {
        "quadrature.rule_calls": calls["rule"],
        "quadrature.rule_ms": ms["rule"],
        "quadrature.rule_hit_ratio": tracer.cache_hits / lookups if lookups else 0.0,
        "exprlib.parse_calls": calls["parse"],
        "exprlib.parse_ms": ms["parse"],
        "exprlib.eval_calls": calls["eval"],
        "exprlib.eval_ms": ms["eval"],
        "exprlib.eval_points": count_a["eval"],
        "exprlib.points_per_call": count_a["eval"] / calls["eval"] if calls["eval"] else 0.0,
        "basis.row_calls": calls["row"],
        "basis.row_ms": ms["row"],
        "basis.row_weights": count_a["row"],
        "operator_uni.kernel_ms": ms["uni_kernel"],
        "operator_uni.kernel_evals": count_a["uni_kernel"],
        "operator_uni.apply_calls": calls["apply"],
        "operator_uni.apply_ms": self_ns["apply"] / 1e6,
        "operator_biv.kernel_ms": ms["biv_kernel"],
        "operator_biv.kernel_evals": count_a["biv_kernel"],
        "operator_biv.surface_ms": ms["surface"],
        "operator_biv.moduli_ms": ms["biv_moduli"],
        "operator_biv.moduli_cells": biv_cells,
        "error_analysis.moduli_calls": calls["moduli"],
        "error_analysis.moduli_ms": ms["moduli"],
        "error_analysis.moduli_grid_points": count_a["moduli"],
        "error_analysis.moduli_shifts": count_b["moduli"],
        "error_analysis.table_ms": ms["table"],
        "experiments.dataset_ms": ms["dataset"],
        "experiments.csv_ms": ms["csv"],
        "experiments.csv_bytes": count_a["csv"],
        "cli.main_self_ms": self_ns["main"] / 1e6,
        "trace.spans": n,
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """import.{numpy,scipy,fracbk}_ms from ``python -X importtime`` output.

    Each value is the cumulative time of the outermost imports of that
    package, so numpy counts once although several modules import it, and
    import.fracbk_ms is the whole ``import fracbk`` including numpy and scipy.
    """
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self_us, cumulative, raw = line[len("import time:"):].split("|")
        level = (len(raw) - len(raw.lstrip()) - 1) // 2
        node = (raw.strip(), int(cumulative), pending.pop(level + 1, []))
        pending.setdefault(level, []).append(node)

    def outermost(nodes, package):
        total = 0
        for name, cumulative, children in nodes:
            if name == package or name.startswith(package + "."):
                total += cumulative
            else:
                total += outermost(children, package)
        return total

    roots = [node for level in sorted(pending) for node in pending[level]]
    return {f"import.{pkg}_ms": outermost(roots, pkg) / 1000.0 for pkg in ("numpy", "scipy", "fracbk")}
