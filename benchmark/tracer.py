"""Per-layer tracing of stripvertex, installed from outside the package.

install() wraps the public entry points of every package module and swaps a
counting dict into each ring's memo.  Nothing under src/ is edited: wrappers
replace module and class attributes at run time, in every module that
imported the same function object, so a call through `from .x import f`
is caught too.

Two kinds of wrapped call:
  * span calls (symfunc, skein, vertex, qdiff, cli) are kept as spans
    (id, parent, name, layer, job, start, end, leaf time) in memory and
    written out by dump(); self times come from the spans afterwards;
  * leaf calls (scalars, partitions) are too frequent to keep one by one.
    They are counted and timed in place; their duration is added to the
    "leaf time" of the span that called them.  Leaf layers never call back
    into span layers.
A group's time (e.g. "symfunc.convert") counts only its outermost calls, so
recursion and nesting are not counted twice; its call count counts all.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, group, layer); group names the per-layer metric
SPAN_POINTS = [
    ("symfunc", "SymFunc.__add__", "symfunc.add", "symfunc"),
    ("symfunc", "SymFunc.__mul__", "symfunc.mul", "symfunc"),
    ("symfunc", "SymFunc.convert", "symfunc.convert", "symfunc"),
    ("symfunc", "SymFunc.scale", "symfunc.scale", "symfunc"),
    ("symfunc", "SymFunc.scale_scalar", "symfunc.scale", "symfunc"),
    ("symfunc", "SymFunc2.__add__", "symfunc.add", "symfunc"),
    ("symfunc", "SymFunc2.__mul__", "symfunc.mul", "symfunc"),
    ("symfunc", "SymFunc2.convert", "symfunc.convert", "symfunc"),
    ("symfunc", "SymFunc2.exp", "symfunc.exp", "symfunc"),
    ("symfunc", "SymFunc2.scale", "symfunc.scale", "symfunc"),
    ("symfunc", "SymFunc2.scale_scalar", "symfunc.scale", "symfunc"),
    ("symfunc", "sym_exp", "symfunc.exp", "symfunc"),
    ("symfunc", "principal_spec_h", "symfunc.principal_spec", "symfunc"),
    ("symfunc", "principal_spec_skew", "symfunc.principal_spec", "symfunc"),
    ("symfunc", "principal_spec_schur_hook", "symfunc.principal_spec", "symfunc"),
    ("symfunc", "tensor", "symfunc.tensor", "symfunc"),
    ("symfunc", "contract_middle", "symfunc.contract_middle", "symfunc"),
    ("skein", "psi", "skein.psi", "skein"),
    ("skein", "psi_inverse", "skein.psi", "skein"),
    ("skein", "solution_element", "skein.solution_element", "skein"),
    ("skein", "solve_recurrence", "skein.solve_recurrence", "skein"),
    ("skein", "verify_dilog_recurrence", "skein.verify_dilog_recurrence", "skein"),
    ("vertex", "topological_vertex", "vertex.topological_vertex", "vertex"),
    ("vertex", "glue_strip", "vertex.glue_strip", "vertex"),
    ("vertex", "z_open", "vertex.z_open", "vertex"),
    ("vertex", "closed_form", "vertex.closed_form", "vertex"),
    ("vertex", "one_brane_closed_form", "vertex.closed_form", "vertex"),
    ("vertex", "two_leg_vertex_series", "vertex.two_leg", "vertex"),
    ("vertex", "two_leg_product_form", "vertex.two_leg", "vertex"),
    ("vertex", "mirror_and_quantum", "vertex.mirror_and_quantum", "vertex"),
    ("vertex", "verify_two_leg_product", "vertex.verify_two_leg_product", "vertex"),
    ("vertex", "verify_strip_identity", "vertex.verify_strip_identity", "vertex"),
    ("vertex", "verify_one_brane_match", "vertex.verify_one_brane_match", "vertex"),
    ("qdiff", "u1_reduce", "qdiff.u1_reduce", "qdiff"),
    ("qdiff", "sigma_q", "qdiff.sigma_q", "qdiff"),
    ("qdiff", "log_reduce", "qdiff.log_reduce", "qdiff"),
    ("qdiff", "curve_residual", "qdiff.curve_residual", "qdiff"),
    ("qdiff", "verify_annihilation", "qdiff.verify_annihilation", "qdiff"),
    ("cli", "main", "cli.main", "cli"),
]

_SCALAR_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
               "__pow__", "subs_q_inverse", "subs_a_one", "adams", "eval_q")
_LAURENT_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
                "__pow__", "subs_a_one")
_NOVIKOV_OPS = ("__add__", "__sub__", "__neg__", "scale", "truncate",
                "adams", "eval_q", "map_scalars")

LEAF_POINTS = (
    [("scalars", f"Scalar.{op}", "scalars.scalar", "scalars") for op in _SCALAR_OPS]
    + [("scalars", f"LaurentScalar.{op}", "scalars.laurent", "scalars")
       for op in _LAURENT_OPS]
    + [("scalars", f"NovikovSeries.{op}", "scalars.novikov", "scalars")
       for op in _NOVIKOV_OPS]
    + [("scalars", "NovikovSeries.__mul__", "scalars.novikov_mul", "scalars"),
       ("scalars", "NovikovSeries.inverse", "scalars.novikov_inverse", "scalars"),
       ("scalars", "_reduce", "scalars.reduce", "scalars"),
       ("partitions", "character", "partitions.character", "partitions"),
       ("partitions", "partitions_of", "partitions.enumerate", "partitions"),
       ("partitions", "enumerate_partitions", "partitions.enumerate", "partitions"),
       ("partitions", "subpartitions", "partitions.enumerate", "partitions"),
       ("partitions", "content_polynomial", "partitions.content_polynomial",
        "partitions")]
)

LAYERS = ("scalars", "partitions", "symfunc", "skein", "vertex", "qdiff", "cli")
MEMO_FAMILIES = ("vertex", "ssk", "h_nu", "h_rho", "psi-p")


class CountingMemo(dict):
    """A ring memo that counts hits and misses by key family (key[0])."""

    def __init__(self, counts: dict):
        super().__init__()
        self.counts = counts

    def _count(self, key, hit: bool) -> None:
        name = f"scalars.memo.{key[0]}.{'hits' if hit else 'misses'}"
        self.counts[name] = self.counts.get(name, 0) + 1

    def __contains__(self, key) -> bool:
        hit = dict.__contains__(self, key)
        self._count(key, hit)
        return hit

    def get(self, key, default=None):
        hit = dict.__contains__(self, key)
        self._count(key, hit)
        return dict.__getitem__(self, key) if hit else default

    def entries(self) -> dict:
        out: dict = {}
        for key in self:
            out[key[0]] = out.get(key[0], 0) + 1
        return out


class Tracer:
    """Spans, call counts and outermost-call times for one traced process."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.group_s: dict = defaultdict(float)
        self.leaf_self_s: dict = defaultdict(float)
        self.memos: list = []
        self.job = None
        # open calls, innermost last
        self._stack: list = []
        self._depth: dict = defaultdict(int)
        self._next_id = 0

    # -- wrappers ---------------------------------------------------------------
    def _wrapper(self, fn, group: str, layer: str, span: bool):
        counts, group_s, depth, stack = (self.counts, self.group_s,
                                         self._depth, self._stack)
        leaf_self_s, spans = self.leaf_self_s, self.spans
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[group] += 1
            outer = depth[group] == 0
            depth[group] += 1
            if span:
                self._next_id += 1
            # [span id or None, time spent in leaf calls made directly from here]
            frame = [self._next_id if span else None, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[group] -= 1
                dur = end - start
                if outer:
                    group_s[group] += dur
                if span:
                    pid = next((f[0] for f in reversed(stack) if f[0] is not None),
                               None)
                    spans.append((frame[0], pid, name, layer, self.job,
                                  start, end, frame[1]))
                else:
                    leaf_self_s[layer] += dur - frame[1]
                    if parent is not None:
                        parent[1] += dur

        return wrapped

    def install(self) -> None:
        """Wrap every entry point and count memo traffic on every ring."""
        for layer in LAYERS:
            importlib.import_module(f"stripvertex.{layer}")
        from stripvertex import scalars

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "stripvertex"
                                         or n.startswith("stripvertex."))]
        for points, span in ((SPAN_POINTS, True), (LEAF_POINTS, False)):
            for mod_name, path, group, layer in points:
                owner = sys.modules[f"stripvertex.{mod_name}"]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
                wrapped = self._wrapper(orig, group, layer, span)
                setattr(owner, attr, wrapped)
                if not cls_path:
                    # the name the caller imported: `from .symfunc import f`
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, key, wrapped)

        scalars.SYMBOLIC.memo = self._memo()
        numeric_init = scalars.NumericQ.__init__
        tracer = self

        def init(ring, t):
            numeric_init(ring, t)
            ring.memo = tracer._memo()

        scalars.NumericQ.__init__ = init

    def _memo(self) -> CountingMemo:
        memo = CountingMemo(self.counts)
        self.memos.append(memo)
        return memo

    # -- output -------------------------------------------------------------------
    def dump(self, path: str) -> None:
        entries: dict = defaultdict(int)
        for memo in self.memos:
            for family, n in memo.entries().items():
                entries[family] += n
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "group_s": dict(self.group_s),
                       "leaf_self_s": dict(self.leaf_self_s),
                       "memo_entries": dict(entries)}, fh)


def span_self_times(spans) -> dict:
    """Self time per layer: span duration minus child spans and leaf calls."""
    child_s: dict = defaultdict(float)
    for sid, pid, _name, _layer, _job, start, end, _leaf in spans:
        if pid is not None:
            child_s[pid] += end - start
    out: dict = defaultdict(float)
    for sid, _pid, _name, layer, _job, start, end, leaf in spans:
        out[layer] += (end - start) - child_s[sid] - leaf
    return out


def layer_metrics(dumps: list, out_bytes: int, overhead_s: float) -> dict:
    """Merge the dumps of one traced pass into the named per-layer metrics."""
    counts: dict = defaultdict(int)
    group_s: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    entries: dict = defaultdict(int)
    for d in dumps:
        for k, v in d["counts"].items():
            counts[k] += v
        for k, v in d["group_s"].items():
            group_s[k] += v
        for k, v in d["leaf_self_s"].items():
            self_s[k] += v
        for k, v in span_self_times(d["spans"]).items():
            self_s[k] += v
        for k, v in d["memo_entries"].items():
            entries[k] += v

    m: dict = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.self_s", self_s[layer], "s")
    put("scalars.scalar_ops", counts["scalars.scalar"], "count")
    put("scalars.reductions", counts["scalars.reduce"], "count")
    put("scalars.scalar_s", group_s["scalars.scalar"], "s")
    put("scalars.laurent_ops", counts["scalars.laurent"], "count")
    put("scalars.laurent_s", group_s["scalars.laurent"], "s")
    put("scalars.novikov_mul_calls", counts["scalars.novikov_mul"], "count")
    put("scalars.novikov_mul_s", group_s["scalars.novikov_mul"], "s")
    put("scalars.novikov_inverse_s", group_s["scalars.novikov_inverse"], "s")
    for fam in MEMO_FAMILIES:
        put(f"scalars.memo.{fam}.hits", counts[f"scalars.memo.{fam}.hits"], "count")
        put(f"scalars.memo.{fam}.misses", counts[f"scalars.memo.{fam}.misses"],
            "count")
        put(f"scalars.memo.{fam}.entries", entries[fam], "count")
    put("partitions.character_calls", counts["partitions.character"], "count")
    put("symfunc.convert_s", group_s["symfunc.convert"], "s")
    put("symfunc.convert_calls", counts["symfunc.convert"], "count")
    put("symfunc.exp_s", group_s["symfunc.exp"], "s")
    put("symfunc.principal_spec_s", group_s["symfunc.principal_spec"], "s")
    put("symfunc.mul_s", group_s["symfunc.mul"], "s")
    put("skein.psi_s", group_s["skein.psi"], "s")
    put("skein.solution_element_s", group_s["skein.solution_element"], "s")
    put("skein.verify_dilog_recurrence_s",
        group_s["skein.verify_dilog_recurrence"], "s")
    put("vertex.glue_strip_s", group_s["vertex.glue_strip"], "s")
    put("vertex.topological_vertex_calls", counts["vertex.topological_vertex"],
        "count")
    put("vertex.z_open_s", group_s["vertex.z_open"], "s")
    put("vertex.closed_form_s", group_s["vertex.closed_form"], "s")
    put("vertex.verify_strip_identity_s", group_s["vertex.verify_strip_identity"],
        "s")
    put("vertex.verify_one_brane_match_s",
        group_s["vertex.verify_one_brane_match"], "s")
    put("qdiff.u1_reduce_s", group_s["qdiff.u1_reduce"], "s")
    put("qdiff.curve_residual_s", group_s["qdiff.curve_residual"], "s")
    put("qdiff.verify_annihilation_s", group_s["qdiff.verify_annihilation"], "s")
    put("cli.out_bytes", out_bytes, "bytes")
    put("trace.overhead_s", overhead_s, "s")
    return m
